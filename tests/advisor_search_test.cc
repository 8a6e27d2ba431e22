#include <gtest/gtest.h>

#include <algorithm>

#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "advisor/dag.h"
#include "advisor/generalize.h"
#include "advisor/search.h"
#include "engine/query_parser.h"
#include "storage/catalog.h"
#include "tpox/tpox_data.h"
#include "xpath/parser.h"

namespace xia::advisor {
namespace {

engine::Statement Parse(const std::string& text) {
  auto stmt = engine::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

// Fixture: a TPoX security collection plus a small workload with strongly
// selective predicates (so indexes genuinely help), and the full advisor
// candidate pipeline.
class SearchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 400;
    scale.order_docs = 400;
    scale.custacc_docs = 100;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());

    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000007\" "
        "return $s"));
    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security[Yield > 9.7] "
        "where $s/SecInfo/*/Sector = \"Energy\" return $s/Name"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/@ID = \"100005\" "
        "return $o"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/Instrmt/Sym = "
        "\"SYM000002\" return $o/@ID"));

    scratch_catalog_ =
        std::make_unique<storage::Catalog>(&store_, &stats_);
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        &store_, scratch_catalog_.get(), &stats_);
    auto set = EnumerateBasicCandidates(workload_, *optimizer_);
    ASSERT_TRUE(set.ok()) << set.status();
    set_ = std::move(*set);
    GeneralizeCandidates(&set_);
    ASSERT_TRUE(
        PopulateStatistics(&set_, stats_, storage::DefaultCostConstants())
            .ok());
    roots_ = BuildDag(&set_);

    whatif_catalog_ = std::make_unique<storage::Catalog>(&store_, &stats_);
    evaluator_ = std::make_unique<BenefitEvaluator>(
        &workload_, &set_, whatif_catalog_.get(), &stats_, &store_,
        BenefitEvaluator::Options{});
    ASSERT_TRUE(evaluator_->Initialize().ok());
  }

  SearchOptions OptionsWithBudget(double bytes) {
    SearchOptions o;
    o.disk_budget_bytes = bytes;
    return o;
  }

  double TotalBasicSize() const {
    double total = 0;
    for (size_t i = 0; i < set_.basic_count; ++i) {
      total += static_cast<double>(set_[i].size_bytes());
    }
    return total;
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  engine::Workload workload_;
  std::unique_ptr<storage::Catalog> scratch_catalog_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<storage::Catalog> whatif_catalog_;
  std::unique_ptr<BenefitEvaluator> evaluator_;
  CandidateSet set_;
  std::vector<int> roots_;
};

TEST_F(SearchFixture, CandidatePipelineSane) {
  EXPECT_GE(set_.basic_count, 4u);
  EXPECT_GT(set_.size(), set_.basic_count);  // generalization added some
  EXPECT_FALSE(roots_.empty());
  for (const auto& c : set_.candidates) {
    EXPECT_GT(c.size_bytes(), 0u) << c.ToString();
    EXPECT_FALSE(c.affected.empty()) << c.ToString();
  }
}

TEST_F(SearchFixture, BenefitEvaluatorBasics) {
  EXPECT_GT(evaluator_->base_workload_cost(), 0);
  auto none = evaluator_->ConfigurationBenefit({});
  ASSERT_TRUE(none.ok());
  EXPECT_DOUBLE_EQ(*none, 0.0);
  // A selective single index has positive benefit.
  const int sym = set_.Find(
      "SDOC", {*xpath::ParsePattern("/Security/Symbol"),
               xpath::ValueType::kString});
  ASSERT_GE(sym, 0);
  auto benefit = evaluator_->ConfigurationBenefit({sym});
  ASSERT_TRUE(benefit.ok());
  EXPECT_GT(*benefit, 0);
  // Speedup consistent with benefit.
  auto speedup = evaluator_->ConfigurationSpeedup({sym});
  ASSERT_TRUE(speedup.ok());
  EXPECT_GT(*speedup, 1.0);
}

TEST_F(SearchFixture, BenefitMonotoneUnderBiggerBudgetConfigs) {
  // Adding a useful index never reduces the estimated benefit (the
  // optimizer can always ignore it).
  const int sym = set_.Find(
      "SDOC", {*xpath::ParsePattern("/Security/Symbol"),
               xpath::ValueType::kString});
  const int oid = set_.Find(
      "ODOC", {*xpath::ParsePattern("/FIXML/Order/@ID"),
               xpath::ValueType::kString});
  ASSERT_GE(sym, 0);
  ASSERT_GE(oid, 0);
  auto one = evaluator_->ConfigurationBenefit({sym});
  auto both = evaluator_->ConfigurationBenefit({sym, oid});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(both.ok());
  EXPECT_GE(*both, *one - 1e-6);
}

TEST_F(SearchFixture, SubConfigurationCacheHitsOnRepeatedEvaluation) {
  const std::vector<int> config{0, 1};
  ASSERT_TRUE(evaluator_->ConfigurationBenefit(config).ok());
  const size_t misses_before = evaluator_->cache_misses();
  const uint64_t calls_before = evaluator_->optimizer_calls();
  ASSERT_TRUE(evaluator_->ConfigurationBenefit(config).ok());
  EXPECT_EQ(evaluator_->cache_misses(), misses_before);
  EXPECT_EQ(evaluator_->optimizer_calls(), calls_before);
  EXPECT_GT(evaluator_->cache_hits(), 0u);
}

TEST_F(SearchFixture, AffectedSetDecompositionReducesOptimizerCalls) {
  // Evaluating a config touching only SDOC statements must not
  // re-optimize ODOC statements.
  BenefitEvaluator::Options naive_options;
  naive_options.use_subconfigurations = false;
  naive_options.use_affected_sets = false;
  storage::Catalog naive_catalog(&store_, &stats_);
  BenefitEvaluator naive(&workload_, &set_, &naive_catalog, &stats_,
                         &store_, naive_options);
  ASSERT_TRUE(naive.Initialize().ok());

  const int sym = set_.Find(
      "SDOC", {*xpath::ParsePattern("/Security/Symbol"),
               xpath::ValueType::kString});
  ASSERT_GE(sym, 0);

  const uint64_t fast_before = evaluator_->optimizer_calls();
  auto fast = evaluator_->ConfigurationBenefit({sym});
  const uint64_t fast_calls = evaluator_->optimizer_calls() - fast_before;

  const uint64_t naive_before = naive.optimizer_calls();
  auto slow = naive.ConfigurationBenefit({sym});
  const uint64_t naive_calls = naive.optimizer_calls() - naive_before;

  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(*fast, *slow, 1e-6);  // same answer
  EXPECT_LT(fast_calls, naive_calls);  // fewer optimizer calls (§VI-C)
}

TEST_F(SearchFixture, AllAlgorithmsRespectBudget) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    for (double budget : {0.0, 16.0 * 1024, 64.0 * 1024, 1024.0 * 1024}) {
      auto outcome = RunSearch(algo, set_, roots_, evaluator_.get(),
                               OptionsWithBudget(budget));
      ASSERT_TRUE(outcome.ok())
          << SearchAlgorithmName(algo) << ": " << outcome.status();
      EXPECT_LE(outcome->total_size_bytes, budget + 1024)
          << SearchAlgorithmName(algo) << " at " << budget;
      // Selected ids are unique and valid.
      auto ids = outcome->selected;
      std::sort(ids.begin(), ids.end());
      EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
      for (int id : ids) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, static_cast<int>(set_.size()));
      }
      EXPECT_EQ(static_cast<int>(outcome->selected.size()),
                outcome->general_count + outcome->specific_count);
    }
  }
}

TEST_F(SearchFixture, ZeroBudgetSelectsNothing) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    auto outcome =
        RunSearch(algo, set_, roots_, evaluator_.get(), OptionsWithBudget(0));
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->selected.empty()) << SearchAlgorithmName(algo);
    EXPECT_DOUBLE_EQ(outcome->benefit, 0.0);
  }
}

TEST_F(SearchFixture, AmpleBudgetYieldsPositiveBenefitEverywhere) {
  const double budget = 10e6;
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    auto outcome = RunSearch(algo, set_, roots_, evaluator_.get(),
                             OptionsWithBudget(budget));
    ASSERT_TRUE(outcome.ok()) << SearchAlgorithmName(algo);
    EXPECT_GT(outcome->benefit, 0) << SearchAlgorithmName(algo);
    EXPECT_FALSE(outcome->selected.empty()) << SearchAlgorithmName(algo);
  }
}

TEST_F(SearchFixture, DpMatchesBruteForceOnStandaloneBenefits) {
  // With interaction ignored, DP must be optimal; verify against brute
  // force over all subsets of the basic candidates.
  std::vector<double> benefits(set_.size());
  for (size_t i = 0; i < set_.size(); ++i) {
    auto b = evaluator_->ConfigurationBenefit({static_cast<int>(i)});
    ASSERT_TRUE(b.ok());
    benefits[i] = *b;
  }
  const double budget = TotalBasicSize() * 0.6;
  const size_t n = set_.basic_count;
  ASSERT_LE(n, 16u);
  double best_brute = 0;
  for (size_t mask = 0; mask < (1u << n); ++mask) {
    double size = 0;
    double value = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        size += static_cast<double>(set_[i].size_bytes());
        value += std::max(0.0, benefits[i]);
      }
    }
    if (size <= budget) best_brute = std::max(best_brute, value);
  }

  // Restrict DP to basic candidates by building a reduced set.
  CandidateSet basics;
  basics.basic_count = set_.basic_count;
  for (size_t i = 0; i < set_.basic_count; ++i) {
    basics.candidates.push_back(set_[i]);
  }
  storage::Catalog dp_catalog(&store_, &stats_);
  BenefitEvaluator dp_eval(&workload_, &basics, &dp_catalog, &stats_,
                           &store_, BenefitEvaluator::Options{});
  ASSERT_TRUE(dp_eval.Initialize().ok());
  SearchOptions options = OptionsWithBudget(budget);
  options.dp_granularity_bytes = 64;  // fine-grained for the comparison
  auto outcome = RunSearch(SearchAlgorithm::kDynamicProgramming, basics, {},
                           &dp_eval, options);
  ASSERT_TRUE(outcome.ok());
  double dp_value = 0;
  for (int id : outcome->selected) {
    dp_value += std::max(0.0, benefits[static_cast<size_t>(id)]);
  }
  // DP discretization may lose a little, but must be close to optimal.
  EXPECT_GE(dp_value, best_brute * 0.95 - 1e-9);
}

TEST_F(SearchFixture, TopDownPrefersGeneralIndexesUnderLargeBudget) {
  const double budget = 10e6;
  auto top_down = RunSearch(SearchAlgorithm::kTopDownLite, set_, roots_,
                            evaluator_.get(), OptionsWithBudget(budget));
  auto heuristics =
      RunSearch(SearchAlgorithm::kGreedyWithHeuristics, set_, roots_,
                evaluator_.get(), OptionsWithBudget(budget));
  ASSERT_TRUE(top_down.ok());
  ASSERT_TRUE(heuristics.ok());
  // Table IV shape: top-down recommends at least as many general indexes
  // as greedy-with-heuristics.
  EXPECT_GE(top_down->general_count, heuristics->general_count);
}

TEST_F(SearchFixture, GreedyHeuristicsAvoidsRedundantGenerals) {
  // With a budget that fits everything, the heuristic search must not pick
  // a general index whose basics are already all covered.
  auto outcome =
      RunSearch(SearchAlgorithm::kGreedyWithHeuristics, set_, roots_,
                evaluator_.get(), OptionsWithBudget(10e6));
  ASSERT_TRUE(outcome.ok());
  std::set<int> covered;
  for (int id : outcome->selected) {
    const Candidate& c = set_[static_cast<size_t>(id)];
    if (c.is_general) {
      bool redundant = !c.covered_basics.empty();
      for (int b : c.covered_basics) {
        if (covered.count(b) == 0) redundant = false;
      }
      // Note: selection order is not recorded in the outcome, so we only
      // check the weaker invariant that not every general's basics are
      // also selected alongside it.
      if (redundant) {
        for (int b : c.covered_basics) {
          EXPECT_TRUE(std::find(outcome->selected.begin(),
                                outcome->selected.end(),
                                b) == outcome->selected.end());
        }
      }
    }
    for (int b : c.covered_basics) covered.insert(b);
  }
}

TEST_F(SearchFixture, ExhaustiveRefusesLargeCandidateSets) {
  SearchOptions options = OptionsWithBudget(1e6);
  options.exhaustive_limit = 2;  // force refusal
  auto outcome = RunSearch(SearchAlgorithm::kExhaustive, set_, roots_,
                           evaluator_.get(), options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SearchFixture, ExhaustiveOracleBoundsEveryAlgorithm) {
  // The exhaustive search is the interaction-aware optimum; no algorithm
  // may beat it, and the good ones should come close at a binding budget.
  if (set_.size() > 16) GTEST_SKIP() << "candidate set too large";
  const double budget = TotalBasicSize() * 0.5;
  auto oracle = RunSearch(SearchAlgorithm::kExhaustive, set_, roots_,
                          evaluator_.get(), OptionsWithBudget(budget));
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_GT(oracle->benefit, 0);

  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    auto outcome = RunSearch(algo, set_, roots_, evaluator_.get(),
                             OptionsWithBudget(budget));
    ASSERT_TRUE(outcome.ok()) << SearchAlgorithmName(algo);
    EXPECT_LE(outcome->benefit, oracle->benefit * 1.0 + 1e-6)
        << SearchAlgorithmName(algo) << " beat the oracle?";
    EXPECT_GE(outcome->benefit, 0.5 * oracle->benefit)
        << SearchAlgorithmName(algo) << " far from optimal: "
        << outcome->benefit << " vs " << oracle->benefit;
  }
  // Greedy+heuristics and top-down full should be near-optimal here.
  auto heur = RunSearch(SearchAlgorithm::kGreedyWithHeuristics, set_, roots_,
                        evaluator_.get(), OptionsWithBudget(budget));
  ASSERT_TRUE(heur.ok());
  EXPECT_GE(heur->benefit, 0.85 * oracle->benefit);
}

TEST(SearchAlgorithmNameTest, AllNamed) {
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kGreedy), "greedy");
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kGreedyWithHeuristics),
               "greedy+heuristics");
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kTopDownLite),
               "top-down lite");
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kTopDownFull),
               "top-down full");
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kDynamicProgramming),
               "dynamic programming");
  EXPECT_STREQ(SearchAlgorithmName(SearchAlgorithm::kExhaustive),
               "exhaustive");
}


TEST(SearchAlgorithmTest, ParsesEveryCommandLineName) {
  const std::pair<const char*, SearchAlgorithm> names[] = {
      {"greedy", SearchAlgorithm::kGreedy},
      {"heuristics", SearchAlgorithm::kGreedyWithHeuristics},
      {"topdown-lite", SearchAlgorithm::kTopDownLite},
      {"topdown-full", SearchAlgorithm::kTopDownFull},
      {"dp", SearchAlgorithm::kDynamicProgramming}};
  for (const auto& [name, algorithm] : names) {
    const Result<SearchAlgorithm> parsed = ParseSearchAlgorithm(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, algorithm) << name;
  }
  for (const char* bad : {"", "exhaustive", "Greedy", "top-down full"}) {
    const Result<SearchAlgorithm> parsed = ParseSearchAlgorithm(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace xia::advisor
