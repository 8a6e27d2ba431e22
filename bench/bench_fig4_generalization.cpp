// Figure 4: generalization to unseen queries — estimated speedup.
//
// The 20-query test workload is the 11 TPoX queries plus 9 synthetic
// queries. The advisor trains on the first n queries (n = 1..20) and the
// recommended configuration is evaluated on the *entire* test workload,
// with a budget large enough to hold general indexes (the paper uses 2 GB
// against a 95 MB All-Index; we use the same ~21x multiple).
//
// Expected shape: both curves rise toward the All-Index reference as n
// grows, but top-down lite sits clearly above greedy+heuristics at small
// n — general indexes cover unseen queries, specific ones do not. The
// "Paper shape check" lines are computed from the printed table, at its
// two-decimal precision.

#include <cmath>
#include <string>

#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "bench/bench_common.h"

namespace {

using namespace xia;         // NOLINT
using namespace xia::bench;  // NOLINT

// Estimated speedup of a recommendation on the full test workload:
// cost(no indexes) / cost(with the recommended patterns virtual).
double TestWorkloadSpeedup(BenchContext* ctx,
                           const engine::Workload& test_workload,
                           const advisor::Recommendation& rec) {
  // Build a one-candidate-per-recommended-index set so the evaluator can
  // score the configuration on the test workload.
  advisor::CandidateSet set;
  std::vector<int> config;
  for (const auto& ri : rec.indexes) {
    advisor::Candidate c;
    c.id = static_cast<int>(set.candidates.size());
    c.collection = ri.collection;
    c.pattern = ri.pattern;
    // Affected set: every test statement on the collection (correct and
    // conservative; the evaluator prunes by collection).
    for (size_t s = 0; s < test_workload.size(); ++s) {
      if (test_workload[s].collection() == ri.collection) {
        c.affected.push_back(s);
      }
    }
    c.covered_basics = {c.id};
    config.push_back(c.id);
    set.candidates.push_back(std::move(c));
  }
  set.basic_count = set.candidates.size();
  if (Status s = advisor::PopulateStatistics(&set, ctx->statistics,
                                             storage::DefaultCostConstants());
      !s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  storage::Catalog catalog(&ctx->store, &ctx->statistics);
  advisor::BenefitEvaluator evaluator(&test_workload, &set, &catalog,
                                      &ctx->statistics, &ctx->store,
                                      advisor::BenefitEvaluator::Options{});
  if (Status s = evaluator.Initialize(); !s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return Unwrap(evaluator.ConfigurationSpeedup(config), "speedup");
}

// "1-3, 7, 9-10": the ascending values of `ns` as runs.
std::string Runs(const std::vector<size_t>& ns) {
  std::string out;
  for (size_t i = 0; i < ns.size();) {
    size_t j = i;
    while (j + 1 < ns.size() && ns[j + 1] == ns[j] + 1) ++j;
    out += out.empty() ? "" : ", ";
    out += std::to_string(ns[i]);
    if (j > i) out += "-" + std::to_string(ns[j]);
    i = j + 1;
  }
  return out.empty() ? "none" : out;
}

}  // namespace

int main() {
  xia::bench::BenchJsonWriter bench_json("fig4_generalization");
  auto ctx = MakeContext();
  const engine::Workload test_workload = MixedWorkload(*ctx);
  auto all_index = Unwrap(ctx->advisor->AllIndexConfiguration(test_workload),
                          "all-index");
  const double budget = 21.0 * all_index.total_size_bytes;

  PrintHeader("Figure 4: generalization to unseen queries (estimated)");
  std::printf("Test workload: %zu queries. Budget: %s (21x AllIndex).\n\n",
              test_workload.size(), HumanBytes(budget).c_str());
  std::printf("%-8s %-14s %-14s %-14s\n", "train n", "topdn-lite",
              "heuristics", "all-index");

  // Per n, in printed cents.
  std::vector<long> lite_by_n;
  std::vector<long> heur_by_n;
  for (size_t n = 1; n <= test_workload.size(); ++n) {
    engine::Workload training(test_workload.begin(),
                              test_workload.begin() + static_cast<long>(n));
    double lite = 0;
    double heur = 0;
    for (advisor::SearchAlgorithm algo :
         {advisor::SearchAlgorithm::kTopDownLite,
          advisor::SearchAlgorithm::kGreedyWithHeuristics}) {
      advisor::AdvisorOptions options;
      options.algorithm = algo;
      options.disk_budget_bytes = budget;
      auto rec =
          Unwrap(ctx->advisor->Recommend(training, options), "recommend");
      const double speedup = TestWorkloadSpeedup(ctx.get(), test_workload, rec);
      if (algo == advisor::SearchAlgorithm::kTopDownLite) {
        lite = speedup;
      } else {
        heur = speedup;
      }
    }
    std::printf("%-8zu %-14.2f %-14.2f %-14.2f\n", n, lite, heur,
                all_index.est_speedup);
    lite_by_n.push_back(std::lround(lite * 100));
    heur_by_n.push_back(std::lround(heur * 100));
  }

  std::vector<size_t> lite_above;
  std::vector<size_t> heur_at_or_above;
  for (size_t i = 0; i < lite_by_n.size(); ++i) {
    (lite_by_n[i] > heur_by_n[i] ? lite_above : heur_at_or_above)
        .push_back(i + 1);
  }
  size_t plateau = lite_by_n.size();
  while (plateau > 1 && lite_by_n[plateau - 2] == lite_by_n.back()) {
    --plateau;
  }
  std::printf("\nPaper shape check (computed from the table above):\n");
  std::printf("  top-down lite above greedy+heuristics (paper: at small n):"
              " n = %s\n",
              Runs(lite_above).c_str());
  std::printf("  greedy+heuristics at or above top-down lite: n = %s\n",
              Runs(heur_at_or_above).c_str());
  std::printf("  top-down lite stays at %.2f from n = %zu; at n = %zu"
              " greedy+heuristics is %.2f, All-Index %.2f\n",
              lite_by_n.back() / 100.0, plateau, lite_by_n.size(),
              heur_by_n.back() / 100.0, all_index.est_speedup);
  return 0;
}
