// Figure 2: estimated workload speedup vs. disk space budget, for the five
// search algorithms plus the All-Index reference configuration.
//
// Budgets are fractions/multiples of the All-Index configuration size (the
// paper's 100 MB..2 GB range brackets its 95 MB All-Index configuration
// the same way). Expected shape: speedup rises with budget toward the
// All-Index plateau; plain greedy needs noticeably more space than the
// others to get there; top-down full is at or above greedy+heuristics and
// can beat interaction-blind dynamic programming. The "Paper shape check"
// lines are computed from the printed table, at its two-decimal precision.

#include <algorithm>
#include <cmath>
#include <string>

#include "bench/bench_common.h"

int main() {
  xia::bench::BenchJsonWriter bench_json("fig2_speedup");
  using namespace xia;           // NOLINT
  using namespace xia::bench;    // NOLINT

  auto ctx = MakeContext();
  const engine::Workload workload = QueryWorkload();

  auto all_index = Unwrap(ctx->advisor->AllIndexConfiguration(workload),
                          "all-index configuration");
  PrintHeader("Figure 2: estimated speedup vs disk budget");
  std::printf("All-Index configuration: %zu indexes, size %s, speedup %.2fx\n",
              all_index.indexes.size(),
              HumanBytes(all_index.total_size_bytes).c_str(),
              all_index.est_speedup);

  const std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0};

  std::printf("\n%-22s", "budget (xAllIndex)");
  for (double f : fractions) std::printf("%8.2f", f);
  std::printf("\n%-22s", "budget (bytes)");
  for (double f : fractions) {
    std::printf("%8s",
                HumanBytes(f * all_index.total_size_bytes).c_str());
  }
  std::printf("\n");

  const std::vector<advisor::SearchAlgorithm>& algorithms = AllAlgorithms();
  // speedup[a][i]: algorithm a at budget fractions[i], in printed cents.
  std::vector<std::vector<long>> speedup;
  for (advisor::SearchAlgorithm algo : algorithms) {
    std::printf("%-22s", advisor::SearchAlgorithmName(algo));
    speedup.emplace_back();
    for (double f : fractions) {
      advisor::AdvisorOptions options;
      options.algorithm = algo;
      options.disk_budget_bytes = f * all_index.total_size_bytes;
      auto rec = Unwrap(ctx->advisor->Recommend(workload, options),
                        "recommend");
      std::printf("%8.2f", rec.est_speedup);
      speedup.back().push_back(std::lround(rec.est_speedup * 100));
    }
    std::printf("\n");
  }
  std::printf("%-22s", "all-index (ref)");
  for (size_t i = 0; i < fractions.size(); ++i) {
    std::printf("%8.2f", all_index.est_speedup);
  }

  const size_t last = fractions.size() - 1;
  auto name = [&](size_t a) {
    return advisor::SearchAlgorithmName(algorithms[a]);
  };
  auto row = [&](advisor::SearchAlgorithm algo) {
    return static_cast<size_t>(
        std::find(algorithms.begin(), algorithms.end(), algo) -
        algorithms.begin());
  };
  std::printf("\n\nPaper shape check (computed from the table above):\n");
  std::printf("  rises with budget (paper: every algorithm); speedup at %gx"
              " against All-Index %.2f:",
              fractions[last], all_index.est_speedup);
  for (size_t a = 0; a < algorithms.size(); ++a) {
    size_t peak = 0;
    bool falls = false;
    for (size_t i = 1; i <= last; ++i) {
      if (speedup[a][i] < speedup[a][i - 1]) falls = true;
      if (speedup[a][i] > speedup[a][peak]) peak = i;
    }
    std::printf("\n    %-20s", name(a));
    if (falls) {
      std::printf(" no (peak %.2f at %gx)", speedup[a][peak] / 100.0,
                  fractions[peak]);
    } else {
      std::printf(" yes");
    }
    std::printf(", %.2f", speedup[a][last] / 100.0);
  }
  std::printf("\n  lowest at each budget (paper: greedy):");
  for (size_t i = 0; i <= last; ++i) {
    std::string lowest;
    long low = speedup[0][i];
    for (size_t a = 1; a < algorithms.size(); ++a) {
      low = std::min(low, speedup[a][i]);
    }
    for (size_t a = 0; a < algorithms.size(); ++a) {
      if (speedup[a][i] != low) continue;
      lowest += lowest.empty() ? "" : " = ";
      lowest += name(a);
    }
    std::printf("\n    %gx %s", fractions[i], lowest.c_str());
  }
  const size_t heuristics =
      row(advisor::SearchAlgorithm::kGreedyWithHeuristics);
  const size_t full = row(advisor::SearchAlgorithm::kTopDownFull);
  size_t full_at_or_above = 0;
  for (size_t i = 0; i <= last; ++i) {
    full_at_or_above += speedup[full][i] >= speedup[heuristics][i];
  }
  std::printf("\n  %s >= %s (paper: at every budget): at %zu of %zu"
              " budgets\n",
              name(full), name(heuristics), full_at_or_above,
              fractions.size());
  return 0;
}
