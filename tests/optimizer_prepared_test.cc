// Prepared planning is a pure split of Optimize: a statement prepared once
// and then planned under many index configurations must get exactly the
// plan a fresh optimizer gives the unprepared statement under each
// configuration — same kind, same legs, bit-identical cost and result
// estimate. Also pins the call accounting (Prepare is not an optimizer
// call; every Optimize of a prepared statement is exactly one) and that a
// prepared plan still honours the deadline and the kOptimizerPlan fault
// point.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "fault/deadline.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"

namespace xia::optimizer {
namespace {

class PreparedStatementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpox::TpoxScale scale;
    scale.security_docs = 200;
    scale.order_docs = 300;
    scale.custacc_docs = 80;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());

    auto queries = tpox::TpoxQueries();
    ASSERT_TRUE(queries.ok()) << queries.status();
    workload_ = std::move(*queries);
    Random mix_rng(3);
    auto mix = tpox::TpoxTransactionMix(4, 200, 300, 80, &mix_rng);
    ASSERT_TRUE(mix.ok()) << mix.status();
    for (engine::Statement& stmt : *mix) workload_.push_back(std::move(stmt));
    for (const uint64_t seed : {21u, 22u, 23u}) {
      Random rng(seed);
      auto synthetic = tpox::GenerateSyntheticWorkload(
          stats_,
          {tpox::kSecurityCollection, tpox::kOrderCollection,
           tpox::kCustAccCollection},
          100, &rng);
      ASSERT_TRUE(synthetic.ok()) << synthetic.status();
      for (engine::Statement& stmt : *synthetic) {
        workload_.push_back(std::move(stmt));
      }
    }

    // The index pool: every candidate the advisor would consider,
    // generalized ones included.
    advisor::IndexAdvisor advisor(&store_, &stats_);
    auto set = advisor.BuildCandidates(workload_, /*generalize=*/true);
    ASSERT_TRUE(set.ok()) << set.status();
    pool_ = std::move(set->candidates);
  }

  static void TearDownTestSuite() {
    pool_.clear();
    workload_.clear();
  }

  // Creates configuration `config` (pool positions) in `catalog` as
  // virtual indexes named after their positions.
  static void CreateConfiguration(const std::vector<size_t>& config,
                                  storage::Catalog* catalog) {
    for (size_t i : config) {
      ASSERT_TRUE(catalog
                      ->CreateVirtualIndex(StringPrintf("v%zu", i),
                                           pool_[i].collection,
                                           pool_[i].pattern)
                      .ok());
    }
  }

  static void ExpectSamePlan(const Plan& prepared, const Plan& fresh,
                             const std::string& context) {
    EXPECT_EQ(prepared.kind, fresh.kind) << context;
    EXPECT_EQ(prepared.est_cost, fresh.est_cost) << context;
    EXPECT_EQ(prepared.est_result_docs, fresh.est_result_docs) << context;
    EXPECT_EQ(prepared.uses_virtual_index, fresh.uses_virtual_index)
        << context;
    ASSERT_EQ(prepared.legs.size(), fresh.legs.size()) << context;
    for (size_t i = 0; i < prepared.legs.size(); ++i) {
      EXPECT_EQ(prepared.legs[i].index_name, fresh.legs[i].index_name)
          << context;
      EXPECT_EQ(prepared.legs[i].est_access_cost,
                fresh.legs[i].est_access_cost)
          << context;
    }
  }

  static storage::DocumentStore store_;
  static storage::StatisticsCatalog stats_;
  static engine::Workload workload_;
  static std::vector<advisor::Candidate> pool_;
};

storage::DocumentStore PreparedStatementTest::store_;
storage::StatisticsCatalog PreparedStatementTest::stats_;
engine::Workload PreparedStatementTest::workload_;
std::vector<advisor::Candidate> PreparedStatementTest::pool_;

TEST_F(PreparedStatementTest, PreparedPlansEqualFreshPlans) {
  ASSERT_GE(workload_.size(), 300u);
  ASSERT_GE(pool_.size(), 20u);

  // Prepared once, against the catalog every configuration is built in.
  storage::Catalog catalog(&store_, &stats_);
  const Optimizer optimizer(&store_, &catalog, &stats_);
  std::vector<PreparedStatement> prepared;
  for (const engine::Statement& stmt : workload_) {
    auto p = optimizer.Prepare(stmt);
    ASSERT_TRUE(p.ok()) << engine::ToText(stmt) << ": " << p.status();
    prepared.push_back(std::move(*p));
  }

  Random rng(77);
  size_t indexed_plans = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<size_t> config;
    const double density = 0.02 + 0.03 * (trial % 10);
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (rng.Bernoulli(density)) config.push_back(i);
    }
    catalog.DropAllVirtualIndexes();
    CreateConfiguration(config, &catalog);
    storage::Catalog fresh_catalog(&store_, &stats_);
    CreateConfiguration(config, &fresh_catalog);

    for (size_t s = 0; s < workload_.size(); ++s) {
      const std::string context = StringPrintf(
          "trial %d, statement %zu: %s", trial, s,
          engine::ToText(workload_[s]).c_str());
      // A fresh optimizer per statement: nothing can carry over.
      const Optimizer fresh(&store_, &fresh_catalog, &stats_);
      auto got = optimizer.Optimize(prepared[s]);
      auto want = fresh.Optimize(workload_[s]);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ASSERT_TRUE(want.ok()) << context << ": " << want.status();
      ExpectSamePlan(*got, *want, context);
      if (!got->legs.empty()) ++indexed_plans;

      auto got_base = optimizer.OptimizeWithoutIndexes(prepared[s]);
      auto want_base = fresh.OptimizeWithoutIndexes(workload_[s]);
      ASSERT_TRUE(got_base.ok() && want_base.ok()) << context;
      ExpectSamePlan(*got_base, *want_base, context + " (no indexes)");
    }
  }
  // The configurations must actually exercise index plans.
  EXPECT_GT(indexed_plans, workload_.size());
}

TEST_F(PreparedStatementTest, PrepareIsNotAnOptimizerCall) {
  storage::Catalog catalog(&store_, &stats_);
  CreateConfiguration({0, 1, 2}, &catalog);
  const Optimizer optimizer(&store_, &catalog, &stats_);
  obs::Counter* global =
      obs::MetricsRegistry::Global().GetCounter("xia.optimizer.optimize_calls");
  const uint64_t global_before = global->value();

  std::vector<PreparedStatement> prepared;
  for (const engine::Statement& stmt : workload_) {
    auto p = optimizer.Prepare(stmt);
    ASSERT_TRUE(p.ok()) << p.status();
    prepared.push_back(std::move(*p));
  }
  EXPECT_EQ(optimizer.optimize_calls(), 0u);
  if (obs::kObsEnabled) {
    EXPECT_EQ(global->value(), global_before);
  }

  uint64_t expected = 0;
  for (const PreparedStatement& p : prepared) {
    ASSERT_TRUE(optimizer.Optimize(p).ok());
    ++expected;
    EXPECT_EQ(optimizer.optimize_calls(), expected);
    ASSERT_TRUE(optimizer.OptimizeWithoutIndexes(p).ok());
    ++expected;
    EXPECT_EQ(optimizer.optimize_calls(), expected);
    if (obs::kObsEnabled) {
      EXPECT_EQ(global->value() - global_before, expected);
    }
  }
}

TEST_F(PreparedStatementTest, PreparedPlanHonoursDeadlineAndFault) {
  storage::Catalog catalog(&store_, &stats_);
  const Optimizer live(&store_, &catalog, &stats_);
  auto prepared = live.Prepare(workload_[0]);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  Optimizer::Options expired_options;
  expired_options.deadline = fault::Deadline::AfterMillis(0);
  const Optimizer expired(&store_, &catalog, &stats_, expired_options);
  EXPECT_EQ(expired.Optimize(*prepared).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.OptimizeWithoutIndexes(*prepared).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.optimize_calls(), 0u);

  fault::ScopedFaultDisarm cleanup;
  fault::FaultRegistry::Global().Arm(fault::points::kOptimizerPlan,
                                     fault::FaultSpec::Probability(1));
  EXPECT_FALSE(live.Optimize(*prepared).ok());
  EXPECT_FALSE(live.OptimizeWithoutIndexes(*prepared).ok());
  EXPECT_EQ(live.optimize_calls(), 0u);
  fault::FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(live.Optimize(*prepared).ok());
  EXPECT_EQ(live.optimize_calls(), 1u);
}

}  // namespace
}  // namespace xia::optimizer
