// Advisor-level invariants checked across algorithms, budgets and seeds:
// determinism, the All-Index ceiling, compaction-neutrality, and
// candidate/DAG structural properties on generated workloads.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "advisor/advisor.h"
#include "advisor/dag.h"
#include "engine/query_parser.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "xpath/containment.h"

namespace xia::advisor {
namespace {

class AdvisorPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 400;
    scale.order_docs = 500;
    scale.custacc_docs = 150;
    scale.seed = GetParam();
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    advisor_ = std::make_unique<IndexAdvisor>(&store_, &stats_);

    Random rng(GetParam() * 101 + 3);
    auto workload = tpox::GenerateSyntheticWorkload(
        stats_,
        {tpox::kSecurityCollection, tpox::kOrderCollection,
         tpox::kCustAccCollection},
        12, &rng);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<IndexAdvisor> advisor_;
  engine::Workload workload_;
};

TEST_P(AdvisorPropertyTest, RecommendationIsDeterministic) {
  AdvisorOptions options;
  options.disk_budget_bytes = 256 * 1024;
  options.algorithm = SearchAlgorithm::kTopDownFull;
  auto a = advisor_->Recommend(workload_, options);
  auto b = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->indexes.size(), b->indexes.size());
  for (size_t i = 0; i < a->indexes.size(); ++i) {
    EXPECT_TRUE(a->indexes[i].pattern == b->indexes[i].pattern);
  }
  EXPECT_DOUBLE_EQ(a->benefit, b->benefit);
}

TEST_P(AdvisorPropertyTest, AllIndexIsABenefitCeiling) {
  auto all = advisor_->AllIndexConfiguration(workload_);
  ASSERT_TRUE(all.ok());
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    AdvisorOptions options;
    options.algorithm = algo;
    options.disk_budget_bytes = 64e6;  // effectively unconstrained
    auto rec = advisor_->Recommend(workload_, options);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo);
    // All-Index holds the best index for every predicate; no query-only
    // configuration beats it by more than estimation noise.
    EXPECT_LE(rec->benefit, all->benefit * 1.05 + 1e-6)
        << SearchAlgorithmName(algo);
  }
}

TEST_P(AdvisorPropertyTest, DuplicatedWorkloadScalesBenefitNotShape) {
  AdvisorOptions options;
  options.disk_budget_bytes = 1e6;
  options.algorithm = SearchAlgorithm::kGreedyWithHeuristics;
  auto base = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(base.ok());

  engine::Workload tripled;
  for (int k = 0; k < 3; ++k) {
    for (const auto& stmt : workload_) tripled.push_back(stmt);
  }
  auto rec3 = advisor_->Recommend(tripled, options);
  ASSERT_TRUE(rec3.ok());
  // Compaction folds the copies: same configuration, ~3x the benefit.
  ASSERT_EQ(rec3->indexes.size(), base->indexes.size());
  for (size_t i = 0; i < base->indexes.size(); ++i) {
    EXPECT_TRUE(rec3->indexes[i].pattern == base->indexes[i].pattern);
  }
  EXPECT_NEAR(rec3->benefit, 3.0 * base->benefit,
              0.01 * rec3->benefit + 1e-6);
  // And, crucially, no more optimizer calls than the single copy needed.
  EXPECT_LE(rec3->optimizer_calls, base->optimizer_calls + 3);
}

TEST_P(AdvisorPropertyTest, CandidateSetStructure) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok());
  // Basic candidates precede generals; ids are positional.
  for (size_t i = 0; i < set->size(); ++i) {
    EXPECT_EQ((*set)[i].id, static_cast<int>(i));
    EXPECT_EQ((*set)[i].is_general, i >= set->basic_count);
  }
  // Every general candidate covers >= 2 basics or strictly covers one,
  // and inherits their affected sets.
  for (size_t i = set->basic_count; i < set->size(); ++i) {
    const Candidate& g = (*set)[i];
    EXPECT_FALSE(g.covered_basics.empty()) << g.ToString();
    std::set<size_t> expected_affected;
    for (int b : g.covered_basics) {
      const Candidate& basic = (*set)[static_cast<size_t>(b)];
      EXPECT_TRUE(xpath::Covers(g.pattern.path, basic.pattern.path))
          << g.ToString() << " vs " << basic.ToString();
      expected_affected.insert(basic.affected.begin(), basic.affected.end());
    }
    EXPECT_EQ(std::set<size_t>(g.affected.begin(), g.affected.end()),
              expected_affected)
        << g.ToString();
  }
  // No duplicate patterns per collection.
  std::set<std::string> seen;
  for (const auto& c : set->candidates) {
    EXPECT_TRUE(seen.insert(c.collection + "|" + c.pattern.ToString()).second)
        << c.ToString();
  }
}

TEST_P(AdvisorPropertyTest, DagIsAcyclicAndCoverageConsistent) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok());
  const std::vector<int> roots = BuildDag(&*set);

  // Parent strictly covers child (or is the smaller-id equivalent).
  for (const auto& c : set->candidates) {
    for (int child : c.children) {
      const Candidate& ch = (*set)[static_cast<size_t>(child)];
      EXPECT_TRUE(xpath::Covers(c.pattern.path, ch.pattern.path));
      // Edge symmetry.
      EXPECT_NE(std::find(ch.parents.begin(), ch.parents.end(), c.id),
                ch.parents.end());
    }
  }
  // Acyclic: DFS from roots never revisits a node on the current stack.
  std::vector<int> state(set->size(), 0);  // 0 new, 1 on-stack, 2 done
  std::function<bool(int)> dfs = [&](int id) {
    if (state[static_cast<size_t>(id)] == 1) return false;
    if (state[static_cast<size_t>(id)] == 2) return true;
    state[static_cast<size_t>(id)] = 1;
    for (int c : (*set)[static_cast<size_t>(id)].children) {
      if (!dfs(c)) return false;
    }
    state[static_cast<size_t>(id)] = 2;
    return true;
  };
  for (int r : roots) EXPECT_TRUE(dfs(r)) << "cycle reachable from " << r;
}

TEST_P(AdvisorPropertyTest, DecomposedBenefitEqualsNaiveBenefit) {
  // The SVI-C machinery (affected sets + sub-configuration cache) must be
  // exactness-preserving on arbitrary configurations.
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(PopulateStatistics(&*set, stats_,
                                 storage::DefaultCostConstants())
                  .ok());

  storage::Catalog fast_catalog(&store_, &stats_);
  BenefitEvaluator fast(&workload_, &*set, &fast_catalog, &stats_, &store_,
                        BenefitEvaluator::Options{});
  ASSERT_TRUE(fast.Initialize().ok());

  BenefitEvaluator::Options naive_options;
  naive_options.use_subconfigurations = false;
  naive_options.use_affected_sets = false;
  storage::Catalog naive_catalog(&store_, &stats_);
  BenefitEvaluator naive(&workload_, &*set, &naive_catalog, &stats_,
                         &store_, naive_options);
  ASSERT_TRUE(naive.Initialize().ok());

  Random rng(GetParam() * 7 + 1);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int> config;
    for (size_t i = 0; i < set->size(); ++i) {
      if (rng.Bernoulli(0.3)) config.push_back(static_cast<int>(i));
    }
    auto a = fast.ConfigurationBenefit(config);
    auto b = naive.ConfigurationBenefit(config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(*a, *b, 1e-6 * std::abs(*b) + 1e-6)
        << "config size " << config.size();
  }
  EXPECT_LT(fast.optimizer_calls(), naive.optimizer_calls());
}

TEST_P(AdvisorPropertyTest, MaintenanceChargeEqualsDirectCostSums) {
  // The evaluator costs each (write statement, candidate) pair once; the
  // charge of any configuration must still equal, bit for bit, the sum of
  // direct MaintenanceCost calls in statement-then-member order.
  Random mix_rng(GetParam() * 17 + 9);
  auto mix = tpox::TpoxTransactionMix(3, 400, 500, 150, &mix_rng);
  ASSERT_TRUE(mix.ok()) << mix.status();
  auto queries = tpox::TpoxQueries();
  ASSERT_TRUE(queries.ok()) << queries.status();
  engine::Workload workload = std::move(*queries);
  for (engine::Statement& stmt : *mix) workload.push_back(std::move(stmt));

  auto set = advisor_->BuildCandidates(workload, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  storage::Catalog catalog(&store_, &stats_);
  BenefitEvaluator evaluator(&workload, &*set, &catalog, &stats_, &store_,
                             BenefitEvaluator::Options{});
  ASSERT_TRUE(evaluator.Initialize().ok());

  storage::Catalog direct_catalog(&store_, &stats_);
  const optimizer::Optimizer direct(&store_, &direct_catalog, &stats_);
  Random rng(GetParam() * 29 + 7);
  size_t charged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<int> config;
    for (size_t i = 0; i < set->size(); ++i) {
      if (rng.Bernoulli(0.05 + 0.05 * (trial % 8))) {
        config.push_back(static_cast<int>(i));
      }
    }
    double expected = 0;
    for (const engine::Statement& stmt : workload) {
      if (stmt.is_query()) continue;
      for (int id : config) {
        const Candidate& c = (*set)[static_cast<size_t>(id)];
        if (c.collection != stmt.collection()) continue;
        expected += stmt.frequency *
                    direct.MaintenanceCost(stmt, c.pattern, c.stats);
      }
    }
    EXPECT_EQ(evaluator.MaintenanceCharge(config), expected)
        << "config size " << config.size();
    if (expected > 0) ++charged;
  }
  EXPECT_GT(charged, 0u);
}

// The §VI-C decomposition as first written: pairwise overlap tests with
// nested std::find over the affected vectors, union-find, and groups
// collected through a std::map keyed by root. Kept as the reference the
// evaluator's bitset decomposition must reproduce group for group and in
// the same order — the order fixes the floating-point summation.
std::vector<std::vector<int>> ReferenceDecompose(
    const CandidateSet& set, const std::vector<int>& config) {
  const size_t n = config.size();
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto overlap = [&](int a, int b) {
    const auto& sa = set[static_cast<size_t>(a)].affected;
    const auto& sb = set[static_cast<size_t>(b)].affected;
    for (size_t x : sa) {
      if (std::find(sb.begin(), sb.end(), x) != sb.end()) return true;
    }
    return false;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (overlap(config[i], config[j])) {
        parent[find(i)] = find(j);
      }
    }
  }
  std::map<size_t, std::vector<int>> groups;
  for (size_t i = 0; i < n; ++i) groups[find(i)].push_back(config[i]);
  std::vector<std::vector<int>> out;
  for (auto& [_, group] : groups) {
    std::sort(group.begin(), group.end());
    out.push_back(std::move(group));
  }
  return out;
}

TEST_P(AdvisorPropertyTest, DecomposeMatchesReferenceUnionFind) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(PopulateStatistics(&*set, stats_,
                                 storage::DefaultCostConstants())
                  .ok());
  // Without maintenance a configuration's benefit is exactly the sum of
  // its groups' query benefits, accumulated in decomposition order.
  BenefitEvaluator::Options options;
  options.charge_maintenance = false;
  storage::Catalog catalog(&store_, &stats_);
  BenefitEvaluator evaluator(&workload_, &*set, &catalog, &stats_, &store_,
                             options);
  ASSERT_TRUE(evaluator.Initialize().ok());

  Random rng(GetParam() * 13 + 5);
  size_t multi_group_configs = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double density = 0.05 + 0.1 * (trial % 6);
    std::vector<int> config;
    for (size_t i = 0; i < set->size(); ++i) {
      if (rng.Bernoulli(density)) config.push_back(static_cast<int>(i));
    }
    if (config.empty()) continue;
    const std::vector<std::vector<int>> expected =
        ReferenceDecompose(*set, config);
    ASSERT_EQ(evaluator.Decompose(config), expected)
        << "config size " << config.size();
    if (expected.size() > 1) ++multi_group_configs;

    double expected_benefit = 0;
    for (const std::vector<int>& group : expected) {
      auto group_benefit = evaluator.ConfigurationBenefit(group);
      ASSERT_TRUE(group_benefit.ok());
      expected_benefit += *group_benefit;
    }
    auto benefit = evaluator.ConfigurationBenefit(config);
    ASSERT_TRUE(benefit.ok());
    EXPECT_EQ(*benefit, expected_benefit) << "config size " << config.size();
  }
  EXPECT_GT(multi_group_configs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdvisorPropertyTest,
                         ::testing::Values(11, 29, 47));

}  // namespace
}  // namespace xia::advisor
