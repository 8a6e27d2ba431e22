// Ablation for §VI-C: how much do affected-set pruning and
// sub-configuration caching cut Evaluate-mode optimizer calls?
//
// Runs the same searches with the optimizations on and off and reports
// optimizer-call counts and advisor runtime. Expected shape: both
// optimizations together reduce calls by a large factor, with identical
// recommendations (they are exactness-preserving). Exits non-zero when
// either part of the shape fails for an algorithm: the full mode must
// recommend the naive mode's indexes and make strictly the fewest calls.

#include <string>
#include <vector>

#include "bench/bench_common.h"

int main() {
  xia::bench::BenchJsonWriter bench_json("ablation_optcalls");
  using namespace xia;           // NOLINT
  using namespace xia::bench;    // NOLINT

  auto ctx = MakeContext();
  const engine::Workload workload = QueryWorkload();
  auto all_index = Unwrap(ctx->advisor->AllIndexConfiguration(workload),
                          "all-index");
  const double budget = all_index.total_size_bytes;  // mid-range budget

  PrintHeader("Ablation (SVI-C): optimizer calls per configuration search");
  std::printf("%-22s %-12s %-12s %-10s %-10s\n", "algorithm", "mode",
              "opt calls", "seconds", "speedup");

  struct Mode {
    const char* name;
    bool subconfig;
    bool affected;
  };
  const Mode modes[] = {
      {"naive", false, false},
      {"affected-only", false, true},
      {"full SVI-C", true, true},
  };

  bool shape_ok = true;
  for (advisor::SearchAlgorithm algo :
       {advisor::SearchAlgorithm::kGreedyWithHeuristics,
        advisor::SearchAlgorithm::kTopDownFull}) {
    std::vector<advisor::Recommendation> recs;
    for (const Mode& mode : modes) {
      advisor::AdvisorOptions options;
      options.algorithm = algo;
      options.disk_budget_bytes = budget;
      options.use_subconfigurations = mode.subconfig;
      options.use_affected_sets = mode.affected;
      auto rec =
          Unwrap(ctx->advisor->Recommend(workload, options), "recommend");
      std::printf("%-22s %-12s %-12llu %-10.4f %-10.2f\n",
                  advisor::SearchAlgorithmName(algo), mode.name,
                  static_cast<unsigned long long>(rec.optimizer_calls),
                  rec.advisor_seconds, rec.est_speedup);
      recs.push_back(std::move(rec));
    }
    const advisor::Recommendation& naive = recs.front();
    const advisor::Recommendation& full = recs.back();
    std::vector<std::string> naive_ddl;
    std::vector<std::string> full_ddl;
    for (const auto& index : naive.indexes) naive_ddl.push_back(index.ddl);
    for (const auto& index : full.indexes) full_ddl.push_back(index.ddl);
    if (full_ddl != naive_ddl) {
      std::printf("FAIL %s: full SVI-C recommends different indexes than"
                  " naive\n",
                  advisor::SearchAlgorithmName(algo));
      shape_ok = false;
    }
    for (size_t m = 0; m + 1 < recs.size(); ++m) {
      if (full.optimizer_calls >= recs[m].optimizer_calls) {
        std::printf("FAIL %s: full SVI-C makes %llu optimizer calls, %s"
                    " %llu\n",
                    advisor::SearchAlgorithmName(algo),
                    static_cast<unsigned long long>(full.optimizer_calls),
                    modes[m].name,
                    static_cast<unsigned long long>(recs[m].optimizer_calls));
        shape_ok = false;
      }
    }
  }
  std::printf("\nShape check: the full SVI-C mode needs the fewest optimizer"
              " calls and\nrecommends the same indexes as the naive mode:"
              " %s\n",
              shape_ok ? "ok" : "FAILED");
  return shape_ok ? 0 : 1;
}
