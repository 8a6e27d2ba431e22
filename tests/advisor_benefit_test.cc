// BenefitEvaluator and BenefitCache contracts the search relies on:
// canonical configuration ids, incremental extension probes that match a
// full evaluation bit for bit (benefit, cache hits and misses, optimizer
// calls), interrupts inside a probe, and failed computations that are
// never cached.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "engine/query_parser.h"
#include "storage/catalog.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"

namespace xia::advisor {
namespace {

engine::Statement Parse(const std::string& text) {
  auto stmt = engine::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

class AdvisorBenefitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 40;
    scale.order_docs = 40;
    scale.custacc_docs = 20;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    advisor_ = std::make_unique<IndexAdvisor>(&store_, &stats_);

    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000007\" "
        "return $s"));
    workload_.push_back(Parse(
        "for $s in c('SDOC')/Security[Yield > 4.5] "
        "where $s/SecInfo/*/Sector = \"Energy\" return $s/Name"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/@ID = \"100005\" "
        "return $o"));
    workload_.push_back(Parse(
        "for $o in c('ODOC')/FIXML/Order where $o/Instrmt/Sym = "
        "\"SYM000002\" return $o/@ID"));
    workload_.push_back(Parse(
        "for $c in c('CADOC')/Customer where $c/Id = 1003 "
        "return $c/Name"));
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<IndexAdvisor> advisor_;
  engine::Workload workload_;
};

// Canonicalization: permuted or duplicated candidate ids must hit the
// same cache entries — no spurious misses, no extra optimizer calls.
TEST_F(AdvisorBenefitTest, ConfigurationIdsAreCanonicalized) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_GE(set->basic_count, 3u);

  storage::Catalog whatif(&store_, &stats_);
  BenefitEvaluator evaluator(&workload_, &*set, &whatif, &stats_, &store_,
                             BenefitEvaluator::Options{});
  ASSERT_TRUE(evaluator.Initialize().ok());

  const std::vector<int> config = {0, 1, 2};
  auto sorted = evaluator.ConfigurationBenefit(config);
  ASSERT_TRUE(sorted.ok()) << sorted.status();

  const size_t misses_after_first = evaluator.cache_misses();
  const uint64_t calls_after_first = evaluator.optimizer_calls();

  std::vector<int> shuffled = {2, 0, 1, 2, 0};  // permuted + duplicated
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    auto benefit = evaluator.ConfigurationBenefit(shuffled);
    ASSERT_TRUE(benefit.ok()) << benefit.status();
    EXPECT_EQ(*benefit, *sorted);
  }
  EXPECT_EQ(evaluator.cache_misses(), misses_after_first);
  EXPECT_EQ(evaluator.optimizer_calls(), calls_after_first);
}

// Incremental extension probes (DESIGN §17): ExtensionBenefit(B, X) must
// equal ConfigurationBenefit(B ∪ X) to the last bit, and leave the cache
// hit/miss counts and the optimizer-call count exactly where a full
// evaluation would. Two evaluators over one candidate set receive the same
// sequence of random (base, extension) pairs — one evaluates each union
// whole, the other decomposes the base once and probes the extension. The
// base is evaluated first about half the time, so both the cached-base
// path (greedy+heuristics' usual case) and the uncached one run. `seed`
// picks the pair sequence; 9 cases of 250 pairs each.
struct ExtensionCase {
  const char* workload;
  uint32_t seed;
  bool use_subconfigurations;
};

void PrintTo(const ExtensionCase& c, std::ostream* os) {
  *os << c.workload << ", seed " << c.seed
      << (c.use_subconfigurations ? "" : ", one group");
}

class ExtensionBenefitTest
    : public AdvisorBenefitTest,
      public ::testing::WithParamInterface<ExtensionCase> {
 protected:
  engine::Workload MakeWorkload(const std::string& name) {
    if (name == "synthetic") {
      Random rng(5);
      auto synthetic = tpox::GenerateSyntheticWorkload(
          stats_,
          {tpox::kSecurityCollection, tpox::kOrderCollection,
           tpox::kCustAccCollection},
          60, &rng);
      EXPECT_TRUE(synthetic.ok()) << synthetic.status();
      return synthetic.ok() ? std::move(*synthetic) : engine::Workload();
    }
    auto queries = tpox::TpoxQueries();
    EXPECT_TRUE(queries.ok()) << queries.status();
    engine::Workload workload =
        queries.ok() ? std::move(*queries) : engine::Workload();
    if (name == "tpox-mix") {  // write statements: nonzero maintenance
      Random rng(11);
      auto mix = tpox::TpoxTransactionMix(2, 300, 400, 100, &rng);
      EXPECT_TRUE(mix.ok()) << mix.status();
      if (mix.ok()) {
        for (engine::Statement& stmt : *mix) workload.push_back(stmt);
      }
    }
    return workload;
  }
};

TEST_P(ExtensionBenefitTest, MatchesFullEvaluationBitForBit) {
  const ExtensionCase& param = GetParam();
  const engine::Workload workload = MakeWorkload(param.workload);
  auto set = advisor_->BuildCandidates(workload, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_GE(set->size(), 8u);

  BenefitEvaluator::Options options;
  options.use_subconfigurations = param.use_subconfigurations;
  storage::Catalog full_catalog(&store_, &stats_);
  storage::Catalog incremental_catalog(&store_, &stats_);
  BenefitEvaluator full(&workload, &*set, &full_catalog, &stats_, &store_,
                        options);
  BenefitEvaluator incremental(&workload, &*set, &incremental_catalog,
                               &stats_, &store_, options);
  ASSERT_TRUE(full.Initialize().ok());
  ASSERT_TRUE(incremental.Initialize().ok());

  std::vector<int> generals;
  for (const Candidate& c : set->candidates) {
    if (c.is_general) generals.push_back(c.id);
  }
  const int n = static_cast<int>(set->size());
  std::mt19937 rng(param.seed * 131 + param.use_subconfigurations);
  auto random_id = [&] { return static_cast<int>(rng() % n); };
  bool maintenance_seen = false;
  for (int pair = 0; pair < 250; ++pair) {
    SCOPED_TRACE(pair);
    std::vector<int> base(rng() % 13);
    for (int& id : base) id = random_id();
    // A candidate, a few (possibly already in the base), or a general
    // candidate's covered basics, as greedy+heuristics probes.
    std::vector<int> extension;
    const uint32_t shape = rng() % 3;
    if (shape == 2 && !generals.empty()) {
      extension = (*set)[static_cast<size_t>(
                      generals[rng() % generals.size()])].covered_basics;
    } else {
      extension.resize(shape == 0 ? 1 : 1 + rng() % 4);
      for (int& id : extension) id = random_id();
    }
    if (rng() % 2 == 0) {
      ASSERT_TRUE(full.ConfigurationBenefit(base).ok());
      ASSERT_TRUE(incremental.ConfigurationBenefit(base).ok());
    }

    std::vector<int> both = base;
    both.insert(both.end(), extension.begin(), extension.end());
    auto expected = full.ConfigurationBenefit(both);
    ASSERT_TRUE(expected.ok()) << expected.status();
    const BenefitEvaluator::Base decomposed = incremental.DecomposeBase(base);
    auto actual = incremental.ExtensionBenefit(
        decomposed, extension, fault::Deadline::Infinite(), nullptr);
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(*actual, *expected);
    EXPECT_EQ(incremental.cache_hits(), full.cache_hits());
    EXPECT_EQ(incremental.cache_misses(), full.cache_misses());
    EXPECT_EQ(incremental.optimizer_calls(), full.optimizer_calls());
    if (full.MaintenanceCharge(decomposed.ids()) > 0) maintenance_seen = true;
  }
  EXPECT_EQ(maintenance_seen, std::string(param.workload) == "tpox-mix");
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ExtensionBenefitTest,
    ::testing::Values(ExtensionCase{"tpox", 1, true},
                      ExtensionCase{"tpox", 4, true},
                      ExtensionCase{"tpox", 1, false},
                      ExtensionCase{"tpox-mix", 1, true},
                      ExtensionCase{"tpox-mix", 4, true},
                      ExtensionCase{"tpox-mix", 4, false},
                      ExtensionCase{"synthetic", 1, true},
                      ExtensionCase{"synthetic", 4, true},
                      ExtensionCase{"synthetic", 1, false}),
    [](const ::testing::TestParamInfo<ExtensionCase>& info) {
      std::string name = info.param.workload;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(info.param.seed) +
             (info.param.use_subconfigurations ? "" : "_whole");
    });

// An extension probe polls the interrupt inside the groups it must
// compute, exactly as a full evaluation does: a cancelled probe fails,
// caches nothing, and a later probe computes the group cleanly.
TEST_F(AdvisorBenefitTest, ExtensionBenefitHonoursCancellation) {
  auto set = advisor_->BuildCandidates(workload_, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  storage::Catalog whatif(&store_, &stats_);
  BenefitEvaluator evaluator(&workload_, &*set, &whatif, &stats_, &store_,
                             BenefitEvaluator::Options{});
  ASSERT_TRUE(evaluator.Initialize().ok());
  const BenefitEvaluator::Base base = evaluator.DecomposeBase({0});
  const std::vector<int> extension = {1};
  fault::CancelToken cancel;
  cancel.Cancel();
  auto cancelled = evaluator.ExtensionBenefit(
      base, extension, fault::Deadline::Infinite(), &cancel);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  auto clean = evaluator.ExtensionBenefit(base, extension,
                                          fault::Deadline::Infinite(), nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  auto full = evaluator.ConfigurationBenefit({0, 1});
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(*clean, *full);
}

TEST(BenefitCacheTest, FailedSingleSlotIsNotCached) {
  BenefitCache cache(4);
  double value = 0;
  EXPECT_FALSE(cache.PeekSingle(3, &value));
  auto failing = cache.GetOrComputeSingle(
      3, []() -> Result<double> { return Status::Internal("transient"); });
  EXPECT_FALSE(failing.ok());
  EXPECT_FALSE(cache.PeekSingle(3, &value));
  auto retry =
      cache.GetOrComputeSingle(3, []() { return Result<double>(7.0); });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 7.0);
  auto hit = cache.GetOrComputeSingle(3, []() { return Result<double>(0.0); });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 7.0);
  ASSERT_TRUE(cache.PeekSingle(3, &value));
  EXPECT_EQ(value, 7.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(BenefitCacheTest, FailedComputationIsNotCached) {
  BenefitCache cache;
  const std::vector<int> key = {1, 2, 3};
  int attempts = 0;
  auto failing = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Status::Internal("transient");
  });
  EXPECT_FALSE(failing.ok());
  // The failure was not cached: the next call recomputes and succeeds.
  auto retry = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Result<double>(42.0);
  });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 42.0);
  EXPECT_EQ(attempts, 2);
  // And from then on it is a plain hit.
  auto hit = cache.GetOrCompute(key, [&attempts]() -> Result<double> {
    ++attempts;
    return Result<double>(0.0);
  });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, 42.0);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace xia::advisor
