#include "storage/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/string_util.h"
#include "xpath/evaluator.h"

namespace xia::storage {

namespace {

// Bytes a key's value contributes to the size model (mirrors the
// incremental path's accounting exactly).
double KeyBytes(const xpath::IndexPattern& pattern, const IndexKey& key) {
  if (pattern.structural) return 0.0;
  return pattern.type == xpath::ValueType::kNumeric
             ? 8.0
             : static_cast<double>(key.str.size());
}

}  // namespace

void PathValueIndex::Build(const Collection& coll) {
  coll.ForEach([&](xml::DocId id, const xml::Document& doc) {
    Apply(id, doc, /*insert=*/true);
  });
}

void PathValueIndex::ExtractKeys(xml::DocId id, const xml::Document& doc,
                                 std::vector<IndexKey>* out) const {
  // One scratch buffer per thread (two online builds may extract at once):
  // extraction runs over whole collections, and a fresh vector per
  // document is measurable there.
  static thread_local std::vector<xml::NodeIndex> scratch;
  xpath::EvaluateLinearInto(doc, pattern_.path, &scratch);
  for (xml::NodeIndex n : scratch) {
    const std::string_view value = doc.value(n);
    IndexKey key;
    key.type = pattern_.type;
    key.rid = {id, n};
    if (pattern_.structural) {
      // Structural entries index reachability only: every matched node,
      // valued or not, keyed by the RID alone (empty value key).
      key.type = xpath::ValueType::kString;
    } else if (value.empty()) {
      continue;
    } else if (pattern_.type == xpath::ValueType::kNumeric) {
      double num = 0.0;
      if (!ParseDouble(value, &num)) continue;  // reject invalid values
      key.num = num;
    } else {
      key.str = value;
    }
    out->push_back(std::move(key));
  }
}

void PathValueIndex::InsertKey(const IndexKey& key) {
  if (!tree_.Insert(key)) return;
  key_bytes_sum_ += KeyBytes(pattern_, key);
  if (pattern_.type == xpath::ValueType::kNumeric) {
    ++numeric_counts_[key.num];
  } else {
    ++string_counts_[key.str];
  }
}

void PathValueIndex::EraseKey(const IndexKey& key) {
  if (!tree_.Erase(key)) return;
  key_bytes_sum_ -= KeyBytes(pattern_, key);
  if (pattern_.type == xpath::ValueType::kNumeric) {
    auto it = numeric_counts_.find(key.num);
    if (it != numeric_counts_.end() && --it->second == 0) {
      numeric_counts_.erase(it);
    }
  } else {
    auto it = string_counts_.find(key.str);
    if (it != string_counts_.end() && --it->second == 0) {
      string_counts_.erase(it);
    }
  }
}

void PathValueIndex::BuildBulk(const Collection& coll) {
  std::vector<IndexKey> keys;
  coll.ForEach([&](xml::DocId id, const xml::Document& doc) {
    ExtractKeys(id, doc, &keys);
  });
  BulkLoadKeys(std::move(keys));
}

namespace {

// A u64 "normalized key" that agrees with IndexKey::operator< whenever
// two prefixes differ; equal prefixes fall back to the full comparator.
// Sorting 12-byte (prefix, index) pairs and re-sorting only the tie runs
// is far cheaper than pushing whole IndexKeys through std::sort.
uint64_t NormalizedPrefix(const IndexKey& key) {
  if (key.type == xpath::ValueType::kNumeric) {
    // Order-preserving u64 encoding of a double: flip all bits of
    // negatives, set the sign bit of non-negatives. -0.0 collapses to
    // +0.0 first so comparator-equal keys get bit-equal prefixes.
    const double d = key.num == 0.0 ? 0.0 : key.num;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return (bits & 0x8000000000000000ull) ? ~bits
                                          : bits | 0x8000000000000000ull;
  }
  // First eight bytes, big-endian, zero-padded: u64 order equals
  // lexicographic order on the prefix, and a short string's zero padding
  // sorts it before any longer string sharing its prefix.
  uint64_t prefix = 0;
  const size_t n = std::min<size_t>(key.str.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<unsigned char>(key.str[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

}  // namespace

void PathValueIndex::BulkLoadKeys(std::vector<IndexKey> all) {
  // Normalized-key sort: order (prefix, index) pairs by prefix alone,
  // then re-sort each run of equal prefixes with the full comparator and
  // gather the keys through the resulting permutation.
  std::vector<std::pair<uint64_t, uint32_t>> order(all.size());
  for (uint32_t i = 0; i < all.size(); ++i) {
    order[i] = {NormalizedPrefix(all[i]), i};
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<uint64_t, uint32_t>& a,
               const std::pair<uint64_t, uint32_t>& b) {
              return a.first < b.first;
            });
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j].first == order[i].first) ++j;
    if (j - i > 1) {
      std::sort(order.begin() + static_cast<ptrdiff_t>(i),
                order.begin() + static_cast<ptrdiff_t>(j),
                [&all](const std::pair<uint64_t, uint32_t>& a,
                       const std::pair<uint64_t, uint32_t>& b) {
                  return all[a.second] < all[b.second];
                });
    }
    i = j;
  }
  std::vector<IndexKey> sorted;
  sorted.reserve(all.size());
  for (const auto& [prefix, index] : order) {
    sorted.push_back(std::move(all[index]));
  }
  all = std::move(sorted);

  // (value, rid) keys are unique within a document (EvaluateLinear
  // dedupes node hits) and rids differ across documents, but mirror the
  // incremental path's duplicate tolerance anyway.
  all.erase(std::unique(all.begin(), all.end(),
                        [](const IndexKey& a, const IndexKey& b) {
                          return !(a < b) && !(b < a);
                        }),
            all.end());

  // Rebuild the derived accounting in one ordered pass, then pack the
  // tree bottom-up. Sorted input means equal values sit in adjacent
  // runs, so each distinct value is hint-inserted at the map's end in
  // amortized O(1) instead of an O(log n) walk per key.
  key_bytes_sum_ = 0.0;
  numeric_counts_.clear();
  string_counts_.clear();
  for (size_t i = 0; i < all.size();) {
    size_t j = i;
    if (pattern_.type == xpath::ValueType::kNumeric) {
      const double value = all[i].num;
      while (j < all.size() && all[j].num == value) ++j;
      numeric_counts_.emplace_hint(numeric_counts_.end(), value,
                                   static_cast<uint32_t>(j - i));
    } else {
      const std::string& value = all[i].str;
      while (j < all.size() && all[j].str == value) ++j;
      string_counts_.emplace_hint(string_counts_.end(), value,
                                  static_cast<uint32_t>(j - i));
    }
    key_bytes_sum_ +=
        KeyBytes(pattern_, all[i]) * static_cast<double>(j - i);
    i = j;
  }
  const bool loaded = tree_.BulkLoad(std::move(all));
  (void)loaded;
  assert(loaded);  // strictly increasing by construction
  XIA_OBS_GAUGE_SET("xia.storage.btree.height", tree_.height());
}

uint32_t PathValueIndex::ContentDigest() const {
  uint32_t crc = 0;
  auto feed = [&crc](const void* data, size_t size) {
    crc = Crc32Update(crc, data, size);
  };
  for (auto it = tree_.Begin(); it.valid(); it.Next()) {
    const IndexKey& k = it.key();
    const uint8_t type = static_cast<uint8_t>(k.type);
    feed(&type, 1);
    uint64_t num_bits = 0;
    static_assert(sizeof(num_bits) == sizeof(k.num));
    std::memcpy(&num_bits, &k.num, sizeof(num_bits));
    feed(&num_bits, sizeof(num_bits));
    const uint32_t len = static_cast<uint32_t>(k.str.size());
    feed(&len, sizeof(len));
    feed(k.str.data(), k.str.size());
    const int32_t doc = k.rid.doc;
    const int32_t node = k.rid.node;
    feed(&doc, sizeof(doc));
    feed(&node, sizeof(node));
  }
  return crc;
}

void PathValueIndex::OnInsert(xml::DocId id, const xml::Document& doc) {
  Apply(id, doc, /*insert=*/true);
}

void PathValueIndex::OnRemove(xml::DocId id, const xml::Document& doc) {
  Apply(id, doc, /*insert=*/false);
}

void PathValueIndex::Apply(xml::DocId id, const xml::Document& doc,
                           bool insert) {
  // B+-tree observability is accounted here at the index boundary rather
  // than inside the tree template, so the tree's hot paths compile
  // identically with and without instrumentation.
  const size_t leaves_before = tree_.leaf_count();
  const size_t internals_before = tree_.internal_count();
  std::vector<IndexKey> keys;
  ExtractKeys(id, doc, &keys);
  for (const IndexKey& key : keys) {
    if (insert) {
      InsertKey(key);
    } else {
      EraseKey(key);
    }
  }
  if (insert) {
    // Each maintenance descent touches height_ nodes; page-count deltas
    // reveal how many splits the batch of insertions caused.
    XIA_OBS_COUNT("xia.storage.btree.leaf_splits",
                  tree_.leaf_count() - leaves_before);
    XIA_OBS_COUNT("xia.storage.btree.internal_splits",
                  tree_.internal_count() - internals_before);
    XIA_OBS_GAUGE_SET("xia.storage.btree.height", tree_.height());
  }
}

Result<IndexLookupResult> PathValueIndex::LookupAll() const {
  XIA_FAULT_INJECT(fault::points::kIndexLookup);
  IndexLookupResult out;
  const void* last_page = nullptr;
  for (auto it = tree_.Begin(); it.valid(); it.Next()) {
    if (it.page() != last_page) {
      ++out.leaf_pages_touched;
      last_page = it.page();
    }
    out.rids.push_back(it.key().rid);
  }
  XIA_OBS_COUNT("xia.storage.index.probes", 1);
  XIA_OBS_COUNT("xia.storage.index.entries_scanned", out.rids.size());
  XIA_OBS_COUNT("xia.storage.index.leaf_pages", out.leaf_pages_touched);
  XIA_OBS_COUNT("xia.storage.btree.node_reads",
                tree_.height() + (out.leaf_pages_touched > 0
                                      ? out.leaf_pages_touched - 1
                                      : 0));
  return out;
}

Result<IndexLookupResult> PathValueIndex::Lookup(
    xpath::CompareOp op, const xpath::Literal& literal) const {
  XIA_FAULT_INJECT(fault::points::kIndexLookup);
  if (pattern_.structural) {
    return Status::InvalidArgument(
        "structural index " + name_ + " cannot serve value comparisons");
  }
  if (literal.type != pattern_.type) {
    return Status::InvalidArgument(
        "literal type does not match index type for " + name_);
  }
  if (op == xpath::CompareOp::kNe) {
    return Status::InvalidArgument("index cannot serve '!=' predicates");
  }

  // Compute the scan start key and the in-range test.
  IndexKey start;
  start.type = pattern_.type;
  start.rid = {std::numeric_limits<xml::DocId>::min(),
               std::numeric_limits<xml::NodeIndex>::min()};

  const bool numeric = pattern_.type == xpath::ValueType::kNumeric;
  const double nv = literal.numeric_value;
  const std::string& sv = literal.string_value;

  switch (op) {
    case xpath::CompareOp::kEq:
    case xpath::CompareOp::kGe:
    case xpath::CompareOp::kGt:
      if (numeric) {
        start.num = nv;
      } else {
        start.str = sv;
      }
      break;
    case xpath::CompareOp::kLt:
    case xpath::CompareOp::kLe:
      // Scan from the beginning of the index.
      if (numeric) {
        start.num = -std::numeric_limits<double>::infinity();
      } else {
        start.str.clear();
      }
      break;
    case xpath::CompareOp::kNe:
      break;  // unreachable
  }

  auto in_range = [&](const IndexKey& k) {
    switch (op) {
      case xpath::CompareOp::kEq:
        return numeric ? k.num == nv : k.str == sv;
      case xpath::CompareOp::kGe:
        return true;  // started at literal, everything after qualifies
      case xpath::CompareOp::kGt:
        return numeric ? k.num > nv : k.str > sv;
      case xpath::CompareOp::kLt:
        return numeric ? k.num < nv : k.str < sv;
      case xpath::CompareOp::kLe:
        return numeric ? k.num <= nv : k.str <= sv;
      case xpath::CompareOp::kNe:
        return false;
    }
    return false;
  };
  // For kGt the scan starts at the literal; skip equal keys. For kLt/kLe
  // the scan stops at the first out-of-range key.
  const bool stop_on_miss =
      op == xpath::CompareOp::kEq || op == xpath::CompareOp::kLt ||
      op == xpath::CompareOp::kLe;

  IndexLookupResult out;
  const void* last_page = nullptr;
  for (auto it = tree_.LowerBound(start); it.valid(); it.Next()) {
    const IndexKey& k = it.key();
    if (it.page() != last_page) {
      ++out.leaf_pages_touched;
      last_page = it.page();
    }
    if (in_range(k)) {
      out.rids.push_back(k.rid);
    } else if (stop_on_miss) {
      break;
    }
    // kGt: equal keys at the start fail in_range but the scan continues.
  }
  XIA_OBS_COUNT("xia.storage.index.probes", 1);
  XIA_OBS_COUNT("xia.storage.index.entries_scanned", out.rids.size());
  XIA_OBS_COUNT("xia.storage.index.leaf_pages", out.leaf_pages_touched);
  // One root-to-leaf descent plus the chained leaves walked past the first.
  XIA_OBS_COUNT("xia.storage.btree.node_reads",
                tree_.height() + (out.leaf_pages_touched > 0
                                      ? out.leaf_pages_touched - 1
                                      : 0));
  return out;
}

IndexStats PathValueIndex::ActualStats(const CostConstants& cc) const {
  IndexStats stats;
  stats.entry_count = tree_.size();
  if (pattern_.type == xpath::ValueType::kNumeric && !pattern_.structural) {
    stats.distinct_keys = numeric_counts_.size();
    if (!numeric_counts_.empty()) {
      stats.min_numeric = numeric_counts_.begin()->first;
      stats.max_numeric = numeric_counts_.rbegin()->first;
      // Exact equi-depth histogram from the maintained value counts, so
      // real indexes estimate at least as well as virtual ones.
      std::vector<std::pair<double, double>> weighted;
      weighted.reserve(numeric_counts_.size());
      for (const auto& [value, count] : numeric_counts_) {
        weighted.emplace_back(value, static_cast<double>(count));
      }
      stats.numeric_quantiles = WeightedQuantiles(std::move(weighted), 16);
    }
  } else {
    stats.distinct_keys = string_counts_.size();
    if (!string_counts_.empty()) {
      stats.min_string = string_counts_.begin()->first;
      stats.max_string = string_counts_.rbegin()->first;
    }
  }
  stats.avg_key_length =
      tree_.empty() ? 8.0
                    : key_bytes_sum_ / static_cast<double>(tree_.size());
  stats.size_bytes = static_cast<uint64_t>(std::ceil(
      (stats.avg_key_length + static_cast<double>(cc.index_entry_overhead)) *
      static_cast<double>(stats.entry_count)));
  stats.leaf_pages = std::max<size_t>(1, tree_.leaf_count());
  stats.levels = static_cast<uint32_t>(tree_.height());
  return stats;
}

}  // namespace xia::storage
