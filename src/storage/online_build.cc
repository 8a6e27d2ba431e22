#include "storage/online_build.h"

#include <algorithm>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "util/stopwatch.h"

namespace xia::storage {

void IndexSideLog::Record(bool insert, xml::DocId id,
                          const xml::Document& doc) {
  // Extraction happens outside the log mutex — the caller's exclusive db
  // lock already serializes mutators, and the builder never extracts.
  std::vector<IndexKey> keys;
  target_->ExtractKeys(id, doc, &keys);
  if (keys.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ops_.reserve(ops_.size() + keys.size());
  for (IndexKey& key : keys) {
    Op op;
    op.insert = insert;
    op.key = std::move(key);
    ops_.push_back(std::move(op));
  }
  recorded_total_ += keys.size();
}

std::vector<IndexSideLog::Op> IndexSideLog::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Op> out;
  out.swap(ops_);
  return out;
}

size_t IndexSideLog::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

size_t IndexSideLog::recorded_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_total_;
}

namespace {

// Side-log tail size at or below which the builder stops lock-free
// catch-up and takes the exclusive swap section.
constexpr size_t kCatchupThreshold = 128;
// Bound on lock-free catch-up rounds (a write storm could otherwise
// starve the swap forever).
constexpr size_t kMaxCatchupRounds = 64;

// Detaches the side log (under the db lock) on every early-exit path, so
// a failed build never leaves the catalog forwarding mutations to a dead
// log. Disarmed once the swap section detaches explicitly.
class SideLogGuard {
 public:
  SideLogGuard(Catalog* catalog, std::shared_mutex* db_mu,
               const IndexSideLog* log)
      : catalog_(catalog), db_mu_(db_mu), log_(log) {}
  ~SideLogGuard() {
    if (armed_) {
      std::unique_lock<std::shared_mutex> lock(*db_mu_);
      catalog_->DetachSideLog(log_);
    }
  }
  void Disarm() { armed_ = false; }

 private:
  Catalog* catalog_;
  std::shared_mutex* db_mu_;
  const IndexSideLog* log_;
  bool armed_ = true;
};

void Replay(PathValueIndex* index, std::vector<IndexSideLog::Op> ops,
            size_t* applied) {
  for (const IndexSideLog::Op& op : ops) {
    if (op.insert) {
      index->InsertKey(op.key);
    } else {
      index->EraseKey(op.key);
    }
  }
  *applied += ops.size();
}

}  // namespace

Result<const IndexDef*> BuildIndexOnline(
    Catalog* catalog, std::shared_mutex* db_mu, const std::string& name,
    const std::string& collection, const xpath::IndexPattern& pattern,
    const OnlineBuildOptions& options, const std::function<Status()>& commit,
    OnlineBuildReport* report) {
  Stopwatch total_sw;
  OnlineBuildReport local_report;
  OnlineBuildReport* rep = report ? report : &local_report;

  auto built = std::make_unique<PathValueIndex>(name, collection, pattern);
  IndexSideLog side_log(built.get());

  // Phase 1 (snapshot): brief exclusive section — validate, record the
  // scan bound, attach the side log. Mutations from here on are captured.
  const Collection* coll = nullptr;
  xml::DocId scan_bound = 0;
  {
    std::unique_lock<std::shared_mutex> lock(*db_mu);
    Stopwatch excl_sw;
    XIA_FAULT_INJECT(fault::points::kIndexBuild);
    if (catalog->Get(name).ok()) {
      return Status::AlreadyExists("index " + name + " exists");
    }
    auto c = catalog->store()->GetCollection(collection);
    if (!c.ok()) return c.status();
    XIA_FAULT_INJECT(fault::points::kBtreeAlloc);
    coll = *c;
    scan_bound = coll->id_bound();
    catalog->AttachSideLog(collection, &side_log);
    rep->exclusive_seconds += excl_sw.ElapsedSeconds();
  }
  SideLogGuard guard(catalog, db_mu, &side_log);

  // Phase 2 (scan): extract keys from documents below the bound, one
  // chunk per shared-lock acquisition. Documents inserted after the bound
  // arrive via the side log; documents removed mid-scan either vanish
  // before their chunk (skipped; the side-logged erase no-ops) or are
  // extracted and then erased by replay. Both orders converge.
  std::vector<IndexKey> all;
  const size_t chunk = std::max<size_t>(1, options.scan_chunk_docs);
  for (xml::DocId lo = 0; lo < scan_bound;
       lo = static_cast<xml::DocId>(lo + chunk)) {
    const xml::DocId hi = std::min<xml::DocId>(
        scan_bound, static_cast<xml::DocId>(lo + chunk));
    std::shared_lock<std::shared_mutex> lock(*db_mu);
    for (xml::DocId id = lo; id < hi; ++id) {
      if (!coll->IsLive(id)) continue;
      built->ExtractKeys(id, coll->Get(id), &all);
      ++rep->docs_scanned;
    }
  }

  // Phase 3 (bulk load): outside any lock.
  built->BulkLoadKeys(std::move(all));

  // Phase 4 (catch-up): replay the side log without a lock until the tail
  // is short enough that the exclusive cut is cheap.
  while (rep->catchup_rounds < kMaxCatchupRounds &&
         side_log.pending() > kCatchupThreshold) {
    Replay(built.get(), side_log.Drain(), &rep->delta_ops_applied);
    ++rep->catchup_rounds;
  }

  // Phase 5 (swap): one short exclusive section — final drain, detach,
  // fault point, WAL commit, install.
  {
    std::unique_lock<std::shared_mutex> lock(*db_mu);
    Stopwatch excl_sw;
    Replay(built.get(), side_log.Drain(), &rep->delta_ops_applied);
    catalog->DetachSideLog(&side_log);
    guard.Disarm();
    // Fires *before* the WAL record: an injected swap failure must leave
    // both the catalog and the log without a trace of the index.
    XIA_FAULT_INJECT(fault::points::kIndexBuildSwap);
    if (commit) {
      XIA_RETURN_IF_ERROR(commit());
    }
    auto installed = catalog->InstallIndex(std::move(built));
    if (!installed.ok()) return installed.status();
    rep->exclusive_seconds += excl_sw.ElapsedSeconds();
    rep->total_seconds = total_sw.ElapsedSeconds();
    XIA_OBS_COUNT("xia.storage.index.builds_online", 1);
    XIA_OBS_OBSERVE_LATENCY("xia.storage.index.build_seconds",
                            rep->total_seconds);
    XIA_OBS_OBSERVE_LATENCY("xia.storage.index.build.stall_seconds",
                            rep->exclusive_seconds);
    XIA_OBS_COUNT("xia.storage.index.build.delta_ops",
                  rep->delta_ops_applied);
    return *installed;
  }
}

}  // namespace xia::storage
