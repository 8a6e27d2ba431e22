// The paper's result shapes that EXPERIMENTS.md shows holding, asserted
// on the standard bench database (800 securities, 1200 orders, 300
// customers), so a change that bends one fails here instead of only
// moving a bench table.
//
//  * Fig. 2 (bench_fig2_speedup): greedy+heuristics is at least as good as
//    plain greedy at every budget up to the All-Index size, and both are
//    non-decreasing in the budget.
//  * Table IV (bench_table4_generality): top-down full recommends no fewer
//    general indexes as the budget grows over 1x/1.5x/3x/21x All-Index.
//  * Tight coupling vs the decoupled baseline
//    (bench_baseline_comparison): the tight advisor's judged speedup is at
//    least the baseline's at 0.5x, 1x and 2x All-Index.
//
// Not asserted, because EXPERIMENTS.md records them as deviations from the
// paper: top-down's small speedup dip above 1x All-Index (it keeps
// general indexes that this cost model prices above specific ones), and
// Fig. 4's generalization to unseen queries.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/baseline.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"

namespace xia::advisor {
namespace {

class PaperShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpox::TpoxScale scale;
    scale.security_docs = 800;
    scale.order_docs = 1200;
    scale.custacc_docs = 300;
    scale.seed = 42;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
  }

  static engine::Workload Queries() {
    auto queries = tpox::TpoxQueries();
    EXPECT_TRUE(queries.ok()) << queries.status();
    return queries.ok() ? std::move(*queries) : engine::Workload();
  }

  // The 20-statement workload of Table IV: the TPoX queries plus nine
  // synthetic ones.
  static engine::Workload MixedQueries() {
    engine::Workload workload = Queries();
    Random rng(7);
    auto synthetic = tpox::GenerateSyntheticWorkload(
        stats_,
        {tpox::kSecurityCollection, tpox::kOrderCollection,
         tpox::kCustAccCollection},
        9, &rng);
    EXPECT_TRUE(synthetic.ok()) << synthetic.status();
    if (synthetic.ok()) {
      for (engine::Statement& stmt : *synthetic) {
        workload.push_back(std::move(stmt));
      }
    }
    return workload;
  }

  static double AllIndexSize(const engine::Workload& workload) {
    IndexAdvisor advisor(&store_, &stats_);
    auto all_index = advisor.AllIndexConfiguration(workload);
    EXPECT_TRUE(all_index.ok()) << all_index.status();
    return all_index.ok() ? all_index->total_size_bytes : 0;
  }

  static Recommendation Recommend(const engine::Workload& workload,
                                  SearchAlgorithm algorithm, double budget) {
    IndexAdvisor advisor(&store_, &stats_);
    AdvisorOptions options;
    options.algorithm = algorithm;
    options.disk_budget_bytes = budget;
    auto rec = advisor.Recommend(workload, options);
    EXPECT_TRUE(rec.ok()) << rec.status();
    return rec.ok() ? std::move(*rec) : Recommendation();
  }

  // The workload's estimated speedup with `indexes` created, judged by
  // the real optimizer (frequency-weighted, as the baseline bench does).
  static double JudgedSpeedup(const engine::Workload& workload,
                              const std::vector<RecommendedIndex>& indexes) {
    storage::Catalog catalog(&store_, &stats_);
    int i = 0;
    for (const RecommendedIndex& index : indexes) {
      EXPECT_TRUE(catalog
                      .CreateVirtualIndex(StringPrintf("judge_%d", i++),
                                          index.collection, index.pattern)
                      .ok());
    }
    optimizer::Optimizer optimizer(&store_, &catalog, &stats_);
    double base = 0;
    double with = 0;
    for (const engine::Statement& stmt : workload) {
      auto without_indexes = optimizer.OptimizeWithoutIndexes(stmt);
      auto plan = optimizer.Optimize(stmt);
      EXPECT_TRUE(without_indexes.ok() && plan.ok());
      if (!without_indexes.ok() || !plan.ok()) return 0;
      base += stmt.frequency * without_indexes->est_cost;
      with += stmt.frequency * plan->est_cost;
    }
    return with <= 0 ? 1.0 : base / with;
  }

  static storage::DocumentStore store_;
  static storage::StatisticsCatalog stats_;
};

storage::DocumentStore PaperShapeTest::store_;
storage::StatisticsCatalog PaperShapeTest::stats_;

TEST_F(PaperShapeTest, Figure2HeuristicsDominateGreedyAndBothGrowWithBudget) {
  const engine::Workload workload = Queries();
  const double all_index = AllIndexSize(workload);
  ASSERT_GT(all_index, 0);
  double last_greedy = 0;
  double last_heuristics = 0;
  for (const double fraction : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0}) {
    const double budget = fraction * all_index;
    const double greedy =
        Recommend(workload, SearchAlgorithm::kGreedy, budget).est_speedup;
    const double heuristics =
        Recommend(workload, SearchAlgorithm::kGreedyWithHeuristics, budget)
            .est_speedup;
    SCOPED_TRACE(StringPrintf("%gx All-Index: greedy %.4f heuristics %.4f",
                              fraction, greedy, heuristics));
    if (fraction <= 1.0) {
      EXPECT_GE(heuristics, greedy);
    }
    EXPECT_GE(greedy, last_greedy);
    EXPECT_GE(heuristics, last_heuristics);
    last_greedy = greedy;
    last_heuristics = heuristics;
  }
}

TEST_F(PaperShapeTest, TableIVTopDownGeneralCountGrowsWithBudget) {
  const engine::Workload workload = MixedQueries();
  const double all_index = AllIndexSize(workload);
  ASSERT_GT(all_index, 0);
  int last_general = 0;
  for (const double multiple : {1.0, 1.5, 3.0, 21.0}) {
    const Recommendation rec = Recommend(
        workload, SearchAlgorithm::kTopDownFull, multiple * all_index);
    EXPECT_GE(rec.general_count, last_general)
        << multiple << "x All-Index: G " << rec.general_count << " S "
        << rec.specific_count;
    last_general = rec.general_count;
  }
  // The top of the sweep is general-dominated, as in the paper.
  EXPECT_GT(last_general, 0);
}

TEST_F(PaperShapeTest, TightCouplingBeatsDecoupledBaselineAtEveryBudget) {
  const engine::Workload workload = Queries();
  const double all_index = AllIndexSize(workload);
  ASSERT_GT(all_index, 0);
  DecoupledAdvisor baseline(&store_, &stats_);
  for (const double multiple : {0.5, 1.0, 2.0}) {
    const double budget = multiple * all_index;
    const Recommendation tight =
        Recommend(workload, SearchAlgorithm::kGreedyWithHeuristics, budget);
    DecoupledOptions options;
    options.disk_budget_bytes = budget;
    auto decoupled = baseline.Recommend(workload, options);
    ASSERT_TRUE(decoupled.ok()) << decoupled.status();
    const double tight_speedup = JudgedSpeedup(workload, tight.indexes);
    const double decoupled_speedup =
        JudgedSpeedup(workload, decoupled->indexes);
    EXPECT_GE(tight_speedup, decoupled_speedup)
        << multiple << "x All-Index: tight " << tight_speedup
        << " decoupled " << decoupled_speedup;
  }
}

}  // namespace
}  // namespace xia::advisor
