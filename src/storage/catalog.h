// The index catalog: real and virtual index definitions.
//
// The optimizer plans against the catalog. The advisor's what-if machinery
// populates it with *virtual* indexes — catalog entries with derived
// statistics but no physical structure (§III). Virtual indexes participate
// in index matching and costing exactly like real ones, but cannot be
// executed against; the Executor refuses plans that reference them.

#ifndef XIA_STORAGE_CATALOG_H_
#define XIA_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/cost_constants.h"
#include "storage/document_store.h"
#include "storage/index.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "xpath/path.h"

namespace xia::storage {

class IndexSideLog;

/// A catalog entry describing one (real or virtual) index.
struct IndexDef {
  std::string name;
  std::string collection;
  xpath::IndexPattern pattern;
  bool is_virtual = false;
  /// Physical statistics (real indexes) or statistics derived from data
  /// statistics (virtual indexes).
  IndexStats stats;
  /// Physical structure; null for virtual indexes.
  std::unique_ptr<PathValueIndex> physical;
};

/// Registry of indexes over a DocumentStore.
class Catalog {
 public:
  Catalog(DocumentStore* store, const StatisticsCatalog* statistics,
          const CostConstants& cc = DefaultCostConstants())
      : store_(store), statistics_(statistics), cc_(cc) {}

  /// Creates and builds a physical index through the bulk-load fast path
  /// (parallel key extraction when `pool` is non-null). Fails if the name
  /// exists, the collection is unknown or the pool cannot dispatch; a
  /// failed build registers nothing.
  Result<const IndexDef*> CreateIndex(const std::string& name,
                                      const std::string& collection,
                                      const xpath::IndexPattern& pattern,
                                      util::ThreadPool* pool = nullptr);

  /// Installs an already-built physical index — the online build's swap
  /// step. Fails (leaving the catalog untouched) if the name now exists
  /// or the collection is unknown.
  Result<const IndexDef*> InstallIndex(std::unique_ptr<PathValueIndex> built);

  /// Attaches a side log that captures the index entries of every
  /// mutation on `collection` until detached. Attach/detach and the
  /// Notify* calls must be serialized by the caller (the server's
  /// exclusive db lock); the side log's own mutex covers builder drains.
  void AttachSideLog(const std::string& collection, IndexSideLog* log);
  void DetachSideLog(const IndexSideLog* log);
  /// Number of attached side logs (== in-flight online builds).
  size_t attached_side_logs() const { return side_logs_.size(); }

  /// Creates a virtual index. Its statistics are `stats` when given —
  /// callers that already derived them (the advisor's candidates) pass
  /// them in — and otherwise derived from the collection's data
  /// statistics (RunStats must have been run).
  Result<const IndexDef*> CreateVirtualIndex(const std::string& name,
                                             const std::string& collection,
                                             const xpath::IndexPattern& pattern,
                                             const IndexStats* stats = nullptr);

  /// Drops an index by name.
  Status DropIndex(const std::string& name);

  /// Drops every virtual index (used between what-if probes).
  void DropAllVirtualIndexes();

  /// Replaces this catalog's entries with `other`'s, moving the physical
  /// structures over (PathValueIndex is self-contained, so built indexes
  /// transfer between catalogs). `other` is left empty. Used by WAL
  /// recovery, which rebuilds state in a staging store + catalog and then
  /// swaps both in; pair with DocumentStore::Swap.
  void AdoptIndexesFrom(Catalog* other);

  /// All indexes (real and virtual) over a collection.
  std::vector<const IndexDef*> IndexesFor(const std::string& collection) const;

  /// Index by name.
  Result<const IndexDef*> Get(const std::string& name) const;

  /// Mutable access to a real index's physical structure for maintenance.
  Result<PathValueIndex*> GetPhysical(const std::string& name);

  /// Notifies every real index on `collection` of a document change.
  void NotifyInsert(const std::string& collection, xml::DocId id,
                    const xml::Document& doc);
  void NotifyRemove(const std::string& collection, xml::DocId id,
                    const xml::Document& doc);

  size_t size() const { return indexes_.size(); }
  const CostConstants& cost_constants() const { return cc_; }
  DocumentStore* store() { return store_; }
  const StatisticsCatalog* statistics() const { return statistics_; }

 private:
  DocumentStore* store_;
  const StatisticsCatalog* statistics_;
  CostConstants cc_;
  std::map<std::string, IndexDef> indexes_;
  // Side logs of in-flight online builds: (collection, log).
  std::vector<std::pair<std::string, IndexSideLog*>> side_logs_;
};

}  // namespace xia::storage

#endif  // XIA_STORAGE_CATALOG_H_
