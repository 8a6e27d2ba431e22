// Path value indexes: the physical XML index structure.
//
// A PathValueIndex over pattern P of type T contains one entry
// (value, (doc, node)) for every node reachable by P whose text value is
// usable at type T (numeric indexes skip values that do not cast — the
// DB2 "REJECT INVALID VALUES" behaviour). Entries live in a B+-tree keyed
// by (value, rid), supporting equality and range lookups.

#ifndef XIA_STORAGE_INDEX_H_
#define XIA_STORAGE_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "storage/btree.h"
#include "storage/cost_constants.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "xml/node.h"
#include "xpath/path.h"

namespace xia::storage {

/// Key of an XML value index entry: a typed value plus the record id.
/// All keys within one index share the same type.
struct IndexKey {
  xpath::ValueType type = xpath::ValueType::kString;
  double num = 0.0;
  std::string str;
  xml::NodeRef rid;

  bool operator<(const IndexKey& o) const {
    if (type == xpath::ValueType::kNumeric) {
      if (num != o.num) return num < o.num;
    } else {
      const int c = str.compare(o.str);
      if (c != 0) return c < 0;
    }
    return rid < o.rid;
  }
};

/// Result of an index lookup: qualifying RIDs plus the cost-relevant
/// physical counters.
struct IndexLookupResult {
  std::vector<xml::NodeRef> rids;
  size_t leaf_pages_touched = 0;
};

/// A physical XML value index over one collection.
class PathValueIndex {
 public:
  PathValueIndex(std::string name, std::string collection,
                 xpath::IndexPattern pattern)
      : name_(std::move(name)),
        collection_(std::move(collection)),
        pattern_(std::move(pattern)) {}

  const std::string& name() const { return name_; }
  const std::string& collection() const { return collection_; }
  const xpath::IndexPattern& pattern() const { return pattern_; }

  /// Builds the index from every live document of `coll` by incremental
  /// insertion. Kept as the reference path; CreateIndex uses BuildBulk.
  void Build(const Collection& coll);

  /// Builds from every live document via the fast path: key extraction,
  /// one sort, then a bottom-up BTree::BulkLoad. Content-identical to
  /// Build() — entries are fully ordered by (value, rid), so extraction
  /// order never shows in the result.
  void BuildBulk(const Collection& coll);

  /// Replaces the index contents with `keys` (any order; duplicates
  /// tolerated): sorts, dedupes, rebuilds the derived statistics, and
  /// bottom-up bulk-loads the tree. The online builder feeds this with
  /// keys extracted under its own lock discipline.
  void BulkLoadKeys(std::vector<IndexKey> keys);

  /// Appends the entries one document contributes under this index's
  /// pattern to `out`, without touching the tree. The single extraction
  /// routine shared by incremental maintenance, the bulk builder, the
  /// online build's scan and its side log.
  void ExtractKeys(xml::DocId id, const xml::Document& doc,
                   std::vector<IndexKey>* out) const;

  /// Applies one pre-extracted entry (online-build side-log replay).
  /// No-ops on duplicate insert / absent erase.
  void InsertKey(const IndexKey& key);
  void EraseKey(const IndexKey& key);

  /// Index maintenance on document insert/remove.
  void OnInsert(xml::DocId id, const xml::Document& doc);
  void OnRemove(xml::DocId id, const xml::Document& doc);

  /// CRC32 over every entry in key order — a content identity that is
  /// independent of how the tree was built (incremental/bulk/online).
  uint32_t ContentDigest() const;

  /// Looks up RIDs whose value satisfies (op, literal). Returns
  /// InvalidArgument for operators an index cannot serve (!=), a literal
  /// type mismatching the index type, or a structural index.
  Result<IndexLookupResult> Lookup(xpath::CompareOp op,
                                   const xpath::Literal& literal) const;

  /// Scans every entry (the access path of an existence predicate served
  /// by a structural index; also legal on value indexes).
  Result<IndexLookupResult> LookupAll() const;

  size_t entry_count() const { return tree_.size(); }

  /// Physical statistics of the built index.
  IndexStats ActualStats(const CostConstants& cc) const;

 private:
  // Adds/removes the entries contributed by one document.
  void Apply(xml::DocId id, const xml::Document& doc, bool insert);

  std::string name_;
  std::string collection_;
  xpath::IndexPattern pattern_;
  BTree<IndexKey> tree_;
  double key_bytes_sum_ = 0.0;
  // Per-value entry counts, maintained under inserts and deletes so
  // ActualStats can report exact distinct-key counts and value ranges
  // (numeric_counts_ for numeric indexes, string_counts_ otherwise).
  std::map<double, uint32_t> numeric_counts_;
  std::map<std::string, uint32_t> string_counts_;
};

}  // namespace xia::storage

#endif  // XIA_STORAGE_INDEX_H_
