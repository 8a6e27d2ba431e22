#include "advisor/baseline.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace xia::advisor {

namespace {

// How often the path's last label appears (as a whole step name) in the
// workload text — the baseline's optimizer-free notion of "this path
// matters to the workload". Deliberately shallow: it cannot tell a
// predicate from a return expression, which is one of the failure modes
// the paper attributes to decoupled advisors.
double TextAffinity(const std::vector<xml::Tag>& labels,
                    const engine::Workload& workload) {
  if (labels.empty()) return 0;
  const std::string& last = labels.back();
  double affinity = 0;
  for (const auto& stmt : workload) {
    const std::string text = engine::ToText(stmt);
    size_t pos = 0;
    while ((pos = text.find(last, pos)) != std::string::npos) {
      affinity += stmt.frequency;
      pos += last.size();
    }
  }
  return affinity;
}

}  // namespace

Result<std::vector<DecoupledAdvisor::BaselineCandidate>>
DecoupledAdvisor::EnumerateCandidates(const engine::Workload& workload,
                                      const DecoupledOptions& options) const {
  // Collections mentioned by the workload.
  std::vector<std::string> collections;
  for (const auto& stmt : workload) {
    if (std::find(collections.begin(), collections.end(),
                  stmt.collection()) == collections.end()) {
      collections.push_back(stmt.collection());
    }
  }

  std::vector<BaselineCandidate> candidates;
  for (const std::string& collection : collections) {
    XIA_ASSIGN_OR_RETURN(const storage::CollectionStatistics* data,
                         statistics_->Get(collection));
    for (const auto& [path_string, stats] : data->paths()) {
      if (stats.labels.size() > options.max_path_depth) continue;
      if (stats.valued_count == 0) continue;
      // One candidate per concrete data path (paths that occur in the
      // data), typed by the dominant value kind.
      BaselineCandidate c;
      c.collection = collection;
      std::vector<xpath::Step> steps;
      for (const auto& label : stats.labels) {
        steps.emplace_back(xpath::Axis::kChild, label);
      }
      c.pattern.path = xpath::Path(std::move(steps));
      c.pattern.type = (stats.numeric_count * 2 >= stats.valued_count)
                           ? xpath::ValueType::kNumeric
                           : xpath::ValueType::kString;
      const storage::IndexStats derived =
          data->DeriveIndexStats(c.pattern, cc_);
      c.size_bytes = derived.size_bytes;
      // Optimizer-free benefit heuristic: workload text affinity scaled by
      // how much data the index would cover. Bigger looks better — the
      // opposite of what a cost-based what-if would conclude for
      // unselective paths.
      c.heuristic_benefit =
          TextAffinity(stats.labels, workload) *
          std::log2(2.0 + static_cast<double>(stats.count));
      candidates.push_back(std::move(c));
    }
  }
  return candidates;
}

Result<size_t> DecoupledAdvisor::CountCandidates(
    const engine::Workload& workload, const DecoupledOptions& options) const {
  XIA_ASSIGN_OR_RETURN(auto candidates,
                       EnumerateCandidates(workload, options));
  return candidates.size();
}

Result<Recommendation> DecoupledAdvisor::Recommend(
    const engine::Workload& workload, const DecoupledOptions& options) const {
  XIA_ASSIGN_OR_RETURN(std::vector<BaselineCandidate> candidates,
                       EnumerateCandidates(workload, options));

  // Greedy knapsack on the heuristic benefit density.
  std::sort(candidates.begin(), candidates.end(),
            [](const BaselineCandidate& a, const BaselineCandidate& b) {
              const double da =
                  a.heuristic_benefit /
                  std::max<double>(1.0, static_cast<double>(a.size_bytes));
              const double db =
                  b.heuristic_benefit /
                  std::max<double>(1.0, static_cast<double>(b.size_bytes));
              if (da != db) return da > db;
              return a.pattern.path.ToString() < b.pattern.path.ToString();
            });

  Recommendation rec;
  rec.basic_candidates = candidates.size();
  rec.total_candidates = candidates.size();
  double used = 0;
  for (const BaselineCandidate& c : candidates) {
    if (c.heuristic_benefit <= 0) continue;
    const double size = static_cast<double>(c.size_bytes);
    if (used + size > options.disk_budget_bytes) continue;
    used += size;
    RecommendedIndex ri;
    ri.collection = c.collection;
    ri.pattern = c.pattern;
    ri.size_bytes = c.size_bytes;
    ri.ddl = StringPrintf(
        "CREATE INDEX idx ON %s(xmlcol) GENERATE KEY USING XMLPATTERN '%s' "
        "AS SQL %s",
        c.collection.c_str(), c.pattern.path.ToString().c_str(),
        c.pattern.type == xpath::ValueType::kNumeric ? "DOUBLE"
                                                     : "VARCHAR(64)");
    rec.indexes.push_back(std::move(ri));
  }
  rec.total_size_bytes = used;
  // No optimizer coupling: the baseline cannot report benefit/speedup
  // numbers of its own that mean anything; harnesses evaluate its output
  // with the real optimizer.
  rec.benefit = 0;
  rec.est_speedup = 0;
  rec.optimizer_calls = 0;
  return rec;
}

}  // namespace xia::advisor
