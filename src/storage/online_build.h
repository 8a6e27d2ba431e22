// Online (non-blocking) index construction.
//
// Adopting an advisor recommendation must not stall traffic: a full
// CREATE INDEX under the server's exclusive lock blocks every reader and
// writer for the duration of the build. The online build instead runs as a
// state machine — snapshot -> side-log -> catch-up -> swap:
//
//   1. snapshot  — under a brief exclusive section, record the collection's
//     id bound and attach an IndexSideLog to the catalog, so every
//     subsequent mutation's index entries are captured as they happen.
//   2. scan      — extract keys from all documents below the bound on the
//     calling thread in chunks, re-acquiring a *shared* lock per chunk:
//     readers run concurrently, writers interleave between chunks.
//   3. bulk load — sort the extracted keys and pack the B+-tree bottom-up,
//     outside any lock.
//   4. catch-up  — drain and replay the side log without a lock until the
//     tail is short (at most 128 pending entries, or after 64 rounds).
//   5. swap      — one short exclusive section: drain the remaining tail,
//     detach the side log, fire the kIndexBuildSwap fault point, run the
//     caller's commit hook (the WAL append slot — the build's durability
//     point), and install the finished index into the catalog.
//
// Crash safety: the build publishes nothing until the commit hook's WAL
// record lands inside the swap section. A crash at any earlier point
// leaves no trace — the side-logged mutations themselves are WAL-logged by
// their own commits, and recovery simply replays a world in which the
// index was never created. A failure at any point detaches the side log
// and leaves the catalog untouched.
//
// The write-stall window an online build imposes on traffic is exactly the
// swap section (plus the brief snapshot section), reported per build in
// OnlineBuildReport::exclusive_seconds.

#ifndef XIA_STORAGE_ONLINE_BUILD_H_
#define XIA_STORAGE_ONLINE_BUILD_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/index.h"
#include "util/status.h"
#include "xml/document.h"
#include "xpath/path.h"

namespace xia::storage {

class Catalog;
struct IndexDef;

/// Captures the index entries of mutations that race an online build.
/// Entries are extracted eagerly at record time (under the mutator's
/// exclusive db lock, via Catalog::Notify*) because the document may be
/// gone or rewritten by the time the builder replays; replay then needs no
/// access to the store at all. Appends and drains are serialized by the
/// log's own mutex, so the builder drains without holding the db lock.
class IndexSideLog {
 public:
  struct Op {
    bool insert = true;
    IndexKey key;
  };

  /// `target` supplies the pattern to extract under; it is the
  /// builder-private index, used read-only here.
  explicit IndexSideLog(const PathValueIndex* target) : target_(target) {}

  void RecordInsert(xml::DocId id, const xml::Document& doc) {
    Record(true, id, doc);
  }
  void RecordRemove(xml::DocId id, const xml::Document& doc) {
    Record(false, id, doc);
  }

  /// Removes and returns every pending op, in append order.
  std::vector<Op> Drain();

  /// Ops currently pending.
  size_t pending() const;
  /// Total ops ever recorded (for reporting).
  size_t recorded_total() const;

 private:
  void Record(bool insert, xml::DocId id, const xml::Document& doc);

  const PathValueIndex* target_;
  mutable std::mutex mu_;
  std::vector<Op> ops_;
  size_t recorded_total_ = 0;
};

struct OnlineBuildOptions {
  /// Documents scanned per shared-lock acquisition. Smaller chunks yield
  /// to writers more often; larger chunks amortize lock traffic.
  size_t scan_chunk_docs = 512;
};

struct OnlineBuildReport {
  double total_seconds = 0.0;
  /// The write-stall window: time spent holding the exclusive lock
  /// (snapshot + swap sections).
  double exclusive_seconds = 0.0;
  size_t docs_scanned = 0;
  size_t delta_ops_applied = 0;
  size_t catchup_rounds = 0;
};

/// Builds index `name` over `collection` and installs it into `catalog`
/// without holding `db_mu` for the duration — see the state machine above.
/// `db_mu` must be the same lock that serializes every reader/mutator of
/// the catalog and store (the server's db_mu_). `commit` (nullable) runs
/// inside the final exclusive section after the swap fault point and
/// before the install — the WAL append slot; a non-OK return aborts the
/// build with the catalog untouched.
Result<const IndexDef*> BuildIndexOnline(
    Catalog* catalog, std::shared_mutex* db_mu, const std::string& name,
    const std::string& collection, const xpath::IndexPattern& pattern,
    const OnlineBuildOptions& options = {},
    const std::function<Status()>& commit = nullptr,
    OnlineBuildReport* report = nullptr);

}  // namespace xia::storage

#endif  // XIA_STORAGE_ONLINE_BUILD_H_
