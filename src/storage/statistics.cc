#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/heap.h"
#include "util/random.h"
#include "util/string_util.h"
#include "xpath/containment.h"

namespace xia::storage {

std::string PathStats::PathString() const {
  std::string out;
  for (const xml::Tag& l : labels) {
    out += '/';
    out += l.view();
  }
  return out;
}

namespace {

// Mutable accumulation state per path during collection. The distinct
// sets view values in the documents' arenas, which the const collection
// keeps alive and unchanged for the whole collection pass.
struct PathAccum {
  PathStats stats;
  std::unordered_set<std::string_view> distinct;
  std::unordered_set<std::string_view> distinct_numeric;
  double value_length_sum = 0.0;
  bool distinct_saturated = false;
  bool distinct_numeric_saturated = false;
  // Reservoir sample of numeric values for the histogram.
  std::vector<double> numeric_sample;
  uint64_t numeric_seen = 0;
};

}  // namespace

std::vector<double> WeightedQuantiles(
    std::vector<std::pair<double, double>> weighted_values, size_t buckets) {
  if (buckets == 0 || weighted_values.empty()) return {};
  std::sort(weighted_values.begin(), weighted_values.end());
  double total = 0;
  for (const auto& [v, w] : weighted_values) total += w;
  if (total <= 0) return {};

  std::vector<double> out;
  out.reserve(buckets + 1);
  out.push_back(weighted_values.front().first);
  double cum = 0;
  size_t i = 0;
  for (size_t b = 1; b < buckets; ++b) {
    const double target = total * static_cast<double>(b) /
                          static_cast<double>(buckets);
    while (i < weighted_values.size() &&
           cum + weighted_values[i].second < target) {
      cum += weighted_values[i].second;
      ++i;
    }
    out.push_back(weighted_values[std::min(i, weighted_values.size() - 1)]
                      .first);
  }
  out.push_back(weighted_values.back().first);
  return out;
}

double HistogramCdf(const std::vector<double>& quantiles, double v) {
  if (quantiles.size() < 2) return 0.5;
  const size_t buckets = quantiles.size() - 1;
  if (v <= quantiles.front()) return 0.0;
  if (v >= quantiles.back()) return 1.0;
  for (size_t b = 0; b < buckets; ++b) {
    const double lo = quantiles[b];
    const double hi = quantiles[b + 1];
    if (v < hi || (v == hi && hi == lo)) {
      const double within = hi > lo ? (v - lo) / (hi - lo) : 1.0;
      return (static_cast<double>(b) + within) /
             static_cast<double>(buckets);
    }
  }
  return 1.0;
}

void CollectionStatistics::Collect(const Collection& collection,
                                   const CollectOptions& options) {
  const size_t distinct_cap = options.distinct_cap;
  Random sampler(options.seed);
  paths_.clear();
  document_count_ = collection.live_count();
  node_count_ = collection.total_nodes();
  data_pages_ = collection.pages(DefaultCostConstants());

  // Distinct label paths are numbered as they are first seen: a node's
  // path is its parent's path id plus its own label's tag id (nodes are
  // stored parent-before-child), so no path is rendered per node.
  constexpr uint32_t kNoPath = ~uint32_t{0};
  std::vector<PathAccum> accum;
  std::unordered_map<uint64_t, uint32_t> path_ids;
  std::vector<uint32_t> node_paths;

  collection.ForEach([&](xml::DocId, const xml::Document& doc) {
    node_paths.resize(doc.size());
    for (size_t i = 0; i < doc.size(); ++i) {
      const auto node = static_cast<xml::NodeIndex>(i);
      const xml::NodeIndex parent = doc.parent(node);
      const uint32_t parent_path =
          parent == xml::kInvalidNode
              ? kNoPath
              : node_paths[static_cast<size_t>(parent)];
      const auto [it, inserted] = path_ids.try_emplace(
          uint64_t{parent_path} << 32 | doc.label_id(node),
          static_cast<uint32_t>(accum.size()));
      node_paths[i] = it->second;
      if (inserted) {
        PathAccum& added = accum.emplace_back();
        if (parent_path != kNoPath) {
          added.stats.labels = accum[parent_path].stats.labels;
        }
        added.stats.labels.push_back(doc.label(node));
      }
      const std::string_view value = doc.value(node);

      PathAccum& pa = accum[it->second];
      ++pa.stats.count;
      if (!value.empty()) {
        ++pa.stats.valued_count;
        pa.value_length_sum += static_cast<double>(value.size());
        if (!pa.distinct_saturated) {
          pa.distinct.insert(value);
          if (pa.distinct.size() >= distinct_cap) {
            pa.distinct_saturated = true;
          }
        }
        if (pa.stats.valued_count == 1) {
          pa.stats.min_string = value;
          pa.stats.max_string = value;
        } else {
          if (value < pa.stats.min_string) pa.stats.min_string = value;
          if (value > pa.stats.max_string) pa.stats.max_string = value;
        }
        double num = 0.0;
        if (ParseDouble(value, &num)) {
          if (pa.stats.numeric_count == 0) {
            pa.stats.min_numeric = num;
            pa.stats.max_numeric = num;
          } else {
            pa.stats.min_numeric = std::min(pa.stats.min_numeric, num);
            pa.stats.max_numeric = std::max(pa.stats.max_numeric, num);
          }
          ++pa.stats.numeric_count;
          if (!pa.distinct_numeric_saturated) {
            pa.distinct_numeric.insert(value);
            if (pa.distinct_numeric.size() >= distinct_cap) {
              pa.distinct_numeric_saturated = true;
            }
          }
          // Reservoir sampling for the histogram.
          if (options.histogram_buckets > 0) {
            ++pa.numeric_seen;
            if (pa.numeric_sample.size() < options.sample_cap) {
              pa.numeric_sample.push_back(num);
            } else {
              const uint64_t slot = sampler.Uniform(pa.numeric_seen);
              if (slot < options.sample_cap) {
                pa.numeric_sample[slot] = num;
              }
            }
          }
        }
      }
    }
  });

  for (PathAccum& pa : accum) {
    PathStats s = std::move(pa.stats);
    // Saturated distinct sets are extrapolated proportionally to the number
    // of valued nodes — crude, like sampled RUNSTATS.
    if (pa.distinct_saturated) {
      s.distinct_values = std::max<uint64_t>(
          pa.distinct.size(),
          static_cast<uint64_t>(static_cast<double>(s.valued_count) * 0.9));
    } else {
      s.distinct_values = pa.distinct.size();
    }
    if (pa.distinct_numeric_saturated) {
      s.distinct_numeric = std::max<uint64_t>(
          pa.distinct_numeric.size(),
          static_cast<uint64_t>(static_cast<double>(s.numeric_count) * 0.9));
    } else {
      s.distinct_numeric = pa.distinct_numeric.size();
    }
    s.avg_value_length =
        s.valued_count == 0
            ? 0.0
            : pa.value_length_sum / static_cast<double>(s.valued_count);
    if (options.histogram_buckets > 0 && !pa.numeric_sample.empty()) {
      std::vector<std::pair<double, double>> weighted;
      weighted.reserve(pa.numeric_sample.size());
      for (double v : pa.numeric_sample) weighted.emplace_back(v, 1.0);
      s.numeric_quantiles =
          WeightedQuantiles(std::move(weighted), options.histogram_buckets);
    }
    std::string path = s.PathString();
    paths_.emplace(std::move(path), std::move(s));
  }
  accum = {};
  path_ids = {};
  node_paths = {};
  // The accumulation state just freed (distinct sets, samples) sits below
  // the statistics allocated last, so the allocator cannot shrink the heap
  // by itself and the pages would stay resident for the process lifetime:
  // about 20 MB after statistics over a 1.4M-node store.
  ReleaseFreeHeapPages();
}

IndexStats CollectionStatistics::DeriveIndexStats(
    const xpath::IndexPattern& pattern, const CostConstants& cc) const {
  IndexStats out;
  out.entry_count = 0;
  out.distinct_keys = 0;
  double key_length_weighted = 0.0;
  bool any = false;
  // Distinct-key estimation: concrete paths ending in the same label
  // usually draw from one value domain (e.g. Sector under each of the
  // SecInfo/*Information variants), so within such a group the union of
  // distincts is approximated by the group's maximum rather than the sum.
  // Groups are keyed by the last label's tag id, in a flat list (a pattern
  // matches few distinct last labels); the total is an integer sum, so
  // the group order does not matter.
  std::vector<std::pair<uint32_t, uint64_t>> distinct_by_last_label;
  auto group_of = [&](const PathStats& stats) -> uint64_t& {
    const uint32_t tag =
        stats.labels.empty() ? xml::Tag().id() : stats.labels.back().id();
    for (auto& [id, distinct] : distinct_by_last_label) {
      if (id == tag) return distinct;
    }
    return distinct_by_last_label.emplace_back(tag, 0).second;
  };
  // Pool of per-path histogram boundaries, weighted by how many values
  // each boundary represents, for the merged index histogram.
  std::vector<std::pair<double, double>> histogram_pool;
  size_t histogram_buckets = 0;

  for (const auto& [path_string, stats] : paths_) {
    if (!xpath::MatchesLabelPath(pattern.path, stats.labels)) continue;
    uint64_t entries = 0;
    if (pattern.structural) {
      // Every reachable node is an entry; the key is the RID alone.
      entries = stats.count;
      group_of(stats) += stats.count;
    } else if (pattern.type == xpath::ValueType::kNumeric) {
      entries = stats.numeric_count;
      uint64_t& group = group_of(stats);
      group = std::max(group, stats.distinct_numeric);
      key_length_weighted += 8.0 * static_cast<double>(entries);
      if (!stats.numeric_quantiles.empty() && entries > 0) {
        const double weight =
            static_cast<double>(entries) /
            static_cast<double>(stats.numeric_quantiles.size());
        for (double q : stats.numeric_quantiles) {
          histogram_pool.emplace_back(q, weight);
        }
        histogram_buckets = std::max(histogram_buckets,
                                     stats.numeric_quantiles.size() - 1);
      }
      if (entries > 0) {
        if (!any || stats.min_numeric < out.min_numeric) {
          out.min_numeric = stats.min_numeric;
        }
        if (!any || stats.max_numeric > out.max_numeric) {
          out.max_numeric = stats.max_numeric;
        }
      }
    } else {
      entries = stats.valued_count;
      uint64_t& group = group_of(stats);
      group = std::max(group, stats.distinct_values);
      key_length_weighted +=
          stats.avg_value_length * static_cast<double>(entries);
      if (entries > 0) {
        if (!any || stats.min_string < out.min_string) {
          out.min_string = stats.min_string;
        }
        if (!any || stats.max_string > out.max_string) {
          out.max_string = stats.max_string;
        }
      }
    }
    if (entries > 0) any = true;
    out.entry_count += entries;
  }
  for (const auto& [tag, distinct] : distinct_by_last_label) {
    out.distinct_keys += distinct;
  }
  if (!histogram_pool.empty()) {
    out.numeric_quantiles =
        WeightedQuantiles(std::move(histogram_pool), histogram_buckets);
  }

  out.avg_key_length =
      out.entry_count == 0
          ? 8.0
          : key_length_weighted / static_cast<double>(out.entry_count);
  const double entry_bytes =
      out.avg_key_length + static_cast<double>(cc.index_entry_overhead);
  out.size_bytes = static_cast<uint64_t>(
      std::ceil(entry_bytes * static_cast<double>(out.entry_count)));
  out.leaf_pages = std::max<uint64_t>(
      1, out.size_bytes / cc.page_size +
             (out.size_bytes % cc.page_size != 0 ? 1 : 0));
  // Height: levels above the leaves shrink by the assumed fanout.
  out.levels = 1;
  uint64_t pages = out.leaf_pages;
  while (pages > 1) {
    pages = (pages + cc.assumed_fanout - 1) / cc.assumed_fanout;
    ++out.levels;
  }
  return out;
}

double CollectionStatistics::EstimatePathCardinality(
    const xpath::Path& pattern) const {
  double total = 0.0;
  for (const auto& [path_string, stats] : paths_) {
    if (xpath::MatchesLabelPath(pattern, stats.labels)) {
      total += static_cast<double>(stats.count);
    }
  }
  return total;
}

void StatisticsCatalog::RunStats(const Collection& collection) {
  stats_[collection.name()].Collect(collection);
}

void StatisticsCatalog::RunStats(
    const Collection& collection,
    const CollectionStatistics::CollectOptions& options) {
  stats_[collection.name()].Collect(collection, options);
}

Result<const CollectionStatistics*> StatisticsCatalog::Get(
    const std::string& collection) const {
  auto it = stats_.find(collection);
  if (it == stats_.end()) {
    return Status::NotFound("no statistics for collection " + collection +
                            "; run RunStats first");
  }
  return &it->second;
}

}  // namespace xia::storage
