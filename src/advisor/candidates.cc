#include "advisor/candidates.h"

#include <algorithm>
#include <vector>

#include "fault/fault.h"

namespace xia::advisor {

namespace {

// FNV-1a over the collection and every field IndexPattern::operator==
// compares (a structural pattern's type is not one of them). A step's name
// test mixes in as its tag id: equal tags have equal ids.
uint64_t PatternHash(const std::string& collection,
                     const xpath::IndexPattern& pattern) {
  uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const char ch : collection) mix_byte(static_cast<unsigned char>(ch));
  mix_byte(0xff);  // terminator: the fixed-width fields follow
  mix_byte(static_cast<unsigned char>(pattern.structural));
  mix_byte(static_cast<unsigned char>(
      pattern.structural ? xpath::ValueType::kString : pattern.type));
  for (const xpath::Step& step : pattern.path.steps()) {
    mix_byte(static_cast<unsigned char>(step.axis));
    for (uint32_t id = step.name_test.id(), k = 0; k < 4; ++k, id >>= 8) {
      mix_byte(static_cast<unsigned char>(id));
    }
  }
  return h;
}

}  // namespace

std::string Candidate::ToString() const {
  std::string out = pattern.ToString() + " on " + collection;
  if (is_general) out += " [general]";
  return out;
}

int CandidateSet::Find(const std::string& collection,
                       const xpath::IndexPattern& pattern) {
  if (indexed_ > candidates.size()) {  // the vector was replaced
    index_.clear();
    indexed_ = 0;
  }
  for (; indexed_ < candidates.size(); ++indexed_) {
    const Candidate& c = candidates[indexed_];
    index_.emplace(PatternHash(c.collection, c.pattern),
                   static_cast<int>(indexed_));
  }
  int found = -1;
  const auto [begin, end] =
      index_.equal_range(PatternHash(collection, pattern));
  for (auto it = begin; it != end; ++it) {
    const Candidate& c = candidates[static_cast<size_t>(it->second)];
    if ((found < 0 || it->second < found) && c.collection == collection &&
        c.pattern == pattern) {
      found = it->second;
    }
  }
  return found < 0 ? -1 : candidates[static_cast<size_t>(found)].id;
}

Result<CandidateSet> EnumerateBasicCandidates(
    const engine::Workload& workload, const optimizer::Optimizer& optimizer,
    const fault::Deadline& deadline) {
  XIA_FAULT_INJECT(fault::points::kAdvisorEnumerate);
  CandidateSet set;
  for (size_t s = 0; s < workload.size(); ++s) {
    if (deadline.expired()) {
      set.partial = true;
      break;
    }
    auto patterns = optimizer.EnumerateIndexes(workload[s]);
    if (!patterns.ok()) return patterns.status();
    // Dedup by (collection, pattern), then record the statement in the
    // candidate's affected set.
    const std::string& collection = workload[s].collection();
    for (const xpath::IndexPattern& pattern : *patterns) {
      int id = set.Find(collection, pattern);
      if (id < 0) {
        Candidate c;
        c.id = static_cast<int>(set.candidates.size());
        c.collection = collection;
        c.pattern = pattern;
        c.is_general = false;
        c.covered_basics = {c.id};
        set.candidates.push_back(std::move(c));
        id = set.candidates.back().id;
      }
      auto& affected = set.candidates[static_cast<size_t>(id)].affected;
      if (std::find(affected.begin(), affected.end(), s) == affected.end()) {
        affected.push_back(s);
      }
    }
  }
  set.basic_count = set.candidates.size();
  return set;
}

Status PopulateStatistics(CandidateSet* set,
                          const storage::StatisticsCatalog& statistics,
                          const storage::CostConstants& cc) {
  for (Candidate& c : set->candidates) {
    auto data = statistics.Get(c.collection);
    if (!data.ok()) return data.status();
    c.stats = (*data)->DeriveIndexStats(c.pattern, cc);
  }
  return Status::OK();
}

}  // namespace xia::advisor
