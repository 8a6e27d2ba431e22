// Data statistics (the RUNSTATS equivalent) and the derivation of virtual
// index statistics from them.
//
// The paper's advisor never materializes candidate indexes; instead it
// derives each virtual index's statistics (size, entry count, levels, key
// cardinality) from *data* statistics collected once per collection (§III).
// Our data statistics record, for every distinct rooted label path in the
// data: node count, approximate distinct-value count, numeric fraction and
// range, and average value length.

#ifndef XIA_STORAGE_STATISTICS_H_
#define XIA_STORAGE_STATISTICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/cost_constants.h"
#include "storage/document_store.h"
#include "xml/tag.h"
#include "xpath/path.h"

namespace xia::storage {

/// Statistics for one distinct rooted label path (e.g. /Security/Yield).
struct PathStats {
  /// Labels from the root, e.g. {"Security", "Yield"}, as the document
  /// records hold them.
  std::vector<xml::Tag> labels;
  /// Total nodes reachable by this exact label path.
  uint64_t count = 0;
  /// Nodes with a non-empty text value.
  uint64_t valued_count = 0;
  /// Nodes whose value parses as a number.
  uint64_t numeric_count = 0;
  /// Approximate distinct non-empty values.
  uint64_t distinct_values = 0;
  /// Approximate distinct numeric values.
  uint64_t distinct_numeric = 0;
  /// Range of numeric values (valid when numeric_count > 0).
  double min_numeric = 0.0;
  double max_numeric = 0.0;
  /// Lexicographic range of string values (valid when valued_count > 0).
  std::string min_string;
  std::string max_string;
  /// Average byte length of non-empty values.
  double avg_value_length = 0.0;
  /// Equi-depth histogram boundaries over the numeric values (quantiles at
  /// i/B for i = 0..B). Empty when histogram collection is disabled or the
  /// path has no numeric values.
  std::vector<double> numeric_quantiles;

  std::string PathString() const;
};

/// Statistics derived for a (possibly virtual) index.
struct IndexStats {
  /// Entries the index holds (nodes matched, with usable values).
  uint64_t entry_count = 0;
  /// Approximate distinct keys.
  uint64_t distinct_keys = 0;
  /// Size in bytes.
  uint64_t size_bytes = 0;
  /// Leaf pages.
  uint64_t leaf_pages = 1;
  /// Height in levels.
  uint32_t levels = 1;
  /// Average key byte length.
  double avg_key_length = 8.0;
  /// Numeric value range covered (numeric indexes).
  double min_numeric = 0.0;
  double max_numeric = 0.0;
  /// String value range covered (string indexes).
  std::string min_string;
  std::string max_string;
  /// Equi-depth histogram over numeric keys (see PathStats).
  std::vector<double> numeric_quantiles;
};

/// Computes equi-depth quantile boundaries (buckets+1 values) from a
/// weighted sample. Returns empty if the sample is empty or buckets == 0.
std::vector<double> WeightedQuantiles(
    std::vector<std::pair<double, double>> weighted_values, size_t buckets);

/// Fraction of a distribution described by `quantiles` (equi-depth
/// boundaries) that is < v (continuous interpolation within buckets).
double HistogramCdf(const std::vector<double>& quantiles, double v);

/// Per-collection data statistics.
class CollectionStatistics {
 public:
  CollectionStatistics() = default;

  /// Collection knobs.
  struct CollectOptions {
    /// Distinct values tracked exactly per path before extrapolating.
    size_t distinct_cap = 100000;
    /// Equi-depth histogram buckets per path (0 disables histograms and
    /// reverts range selectivity to the uniform assumption).
    size_t histogram_buckets = 16;
    /// Reservoir-sample size per path used to build histograms.
    size_t sample_cap = 2048;
    /// Sampling seed (deterministic statistics for reproducible plans).
    uint64_t seed = 1;
  };

  /// Walks every live document of `collection` and records per-path
  /// statistics. Distinct-value counts are tracked exactly per path up to
  /// `distinct_cap` distinct values, then extrapolated linearly — the same
  /// flavour of approximation RUNSTATS sampling introduces.
  void Collect(const Collection& collection, const CollectOptions& options);
  void Collect(const Collection& collection) { Collect(collection, {}); }

  /// Number of live documents at collection time.
  uint64_t document_count() const { return document_count_; }
  /// Total nodes at collection time.
  uint64_t node_count() const { return node_count_; }
  /// Data pages at collection time.
  uint64_t data_pages() const { return data_pages_; }
  /// Average nodes per document.
  double avg_nodes_per_doc() const {
    return document_count_ == 0 ? 0.0
                                : static_cast<double>(node_count_) /
                                      static_cast<double>(document_count_);
  }

  /// All recorded path statistics, keyed by "/a/b/c" strings.
  const std::map<std::string, PathStats>& paths() const { return paths_; }

  /// Sum of PathStats matched by `pattern` folded into index statistics for
  /// an index of the given value type. This is the virtual-index statistics
  /// derivation of §III.
  IndexStats DeriveIndexStats(const xpath::IndexPattern& pattern,
                              const CostConstants& cc) const;

  /// Estimated number of nodes (per whole collection) reachable by
  /// `pattern`, regardless of value type.
  double EstimatePathCardinality(const xpath::Path& pattern) const;

 private:
  uint64_t document_count_ = 0;
  uint64_t node_count_ = 0;
  uint64_t data_pages_ = 0;
  std::map<std::string, PathStats> paths_;
};

/// Statistics for every collection in a store.
class StatisticsCatalog {
 public:
  /// Runs Collect for one collection and stores the result (replacing any
  /// previous statistics for it).
  void RunStats(const Collection& collection);
  void RunStats(const Collection& collection,
                const CollectionStatistics::CollectOptions& options);

  /// Statistics for a collection; NotFound if RunStats was never called.
  Result<const CollectionStatistics*> Get(const std::string& collection) const;

  /// Forgets a collection's statistics.
  void Drop(const std::string& collection) { stats_.erase(collection); }

 private:
  std::map<std::string, CollectionStatistics> stats_;
};

}  // namespace xia::storage

#endif  // XIA_STORAGE_STATISTICS_H_
