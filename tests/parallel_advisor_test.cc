// Parallel advising equivalence: the whole point of DESIGN §12 is that a
// pooled run is indistinguishable from a serial one — same indexes, same
// benefit, same optimizer-call count — so these tests assert exact
// equality (not tolerance) across thread counts, for every search
// algorithm. Also stresses the sharded BenefitCache's in-flight dedup
// directly (run under TSAN by the xia_tsan_build ctest).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <random>
#include <string>
#include <thread>
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
#include "util/thread_pool.h"

namespace xia::advisor {
namespace {

engine::Statement Parse(const std::string& text) {
  auto stmt = engine::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

class ParallelAdvisorTest : public ::testing::Test {
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

  // Exact comparison: parallel advising promises bit-identical output.
  static void ExpectSameRecommendation(const Recommendation& a,
                                       const Recommendation& b) {
    ASSERT_EQ(a.indexes.size(), b.indexes.size());
    for (size_t i = 0; i < a.indexes.size(); ++i) {
      EXPECT_EQ(a.indexes[i].collection, b.indexes[i].collection);
      EXPECT_EQ(a.indexes[i].pattern.ToString(),
                b.indexes[i].pattern.ToString());
      EXPECT_EQ(a.indexes[i].is_general, b.indexes[i].is_general);
      EXPECT_EQ(a.indexes[i].size_bytes, b.indexes[i].size_bytes);
    }
    EXPECT_EQ(a.total_size_bytes, b.total_size_bytes);
    EXPECT_EQ(a.base_cost, b.base_cost);
    EXPECT_EQ(a.benefit, b.benefit);
    EXPECT_EQ(a.est_speedup, b.est_speedup);
    EXPECT_EQ(a.basic_candidates, b.basic_candidates);
    EXPECT_EQ(a.total_candidates, b.total_candidates);
    EXPECT_EQ(a.general_count, b.general_count);
    EXPECT_EQ(a.specific_count, b.specific_count);
    EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
    EXPECT_EQ(a.partial, b.partial);
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<IndexAdvisor> advisor_;
  engine::Workload workload_;
};

TEST_F(ParallelAdvisorTest, EveryAlgorithmIdenticalAcrossThreadCounts) {
  const std::vector<SearchAlgorithm> algorithms = {
      SearchAlgorithm::kGreedy,
      SearchAlgorithm::kGreedyWithHeuristics,
      SearchAlgorithm::kTopDownLite,
      SearchAlgorithm::kTopDownFull,
      SearchAlgorithm::kDynamicProgramming,
  };
  for (SearchAlgorithm algo : algorithms) {
    SCOPED_TRACE(SearchAlgorithmName(algo));
    AdvisorOptions options;
    options.algorithm = algo;
    options.disk_budget_bytes = 512 * 1024;
    options.threads = 1;
    auto serial = advisor_->Recommend(workload_, options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_FALSE(serial->partial);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      auto parallel = advisor_->Recommend(workload_, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRecommendation(*serial, *parallel);
    }
  }
}

// The many-iteration searches on a workload shaped like a perfbench advise
// input (the TPoX queries plus synthetic statements): one-member groups go
// through the per-candidate slots, larger ones through the map, from
// several threads at once.
TEST_F(ParallelAdvisorTest, ManyProbeSearchesIdenticalAcrossThreadCounts) {
  auto queries = tpox::TpoxQueries();
  ASSERT_TRUE(queries.ok()) << queries.status();
  engine::Workload workload = std::move(*queries);
  Random rng(7);
  auto synthetic = tpox::GenerateSyntheticWorkload(
      stats_,
      {tpox::kSecurityCollection, tpox::kOrderCollection,
       tpox::kCustAccCollection},
      40, &rng);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  for (engine::Statement& stmt : *synthetic) workload.push_back(stmt);
  auto all_index = advisor_->AllIndexConfiguration(workload);
  ASSERT_TRUE(all_index.ok()) << all_index.status();
  for (SearchAlgorithm algo : {SearchAlgorithm::kGreedyWithHeuristics,
                               SearchAlgorithm::kTopDownFull}) {
    for (const double fraction : {0.25, 1.0}) {
      SCOPED_TRACE(std::string(SearchAlgorithmName(algo)) + " at " +
                   std::to_string(fraction));
      AdvisorOptions options;
      options.algorithm = algo;
      options.disk_budget_bytes = fraction * all_index->total_size_bytes;
      options.threads = 1;
      auto serial = advisor_->Recommend(workload, options);
      ASSERT_TRUE(serial.ok()) << serial.status();
      for (size_t threads : {size_t{2}, size_t{4}}) {
        SCOPED_TRACE(threads);
        options.threads = threads;
        auto parallel = advisor_->Recommend(workload, options);
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        ExpectSameRecommendation(*serial, *parallel);
      }
    }
  }
}

TEST_F(ParallelAdvisorTest, ExhaustiveIdenticalAcrossThreadCounts) {
  // Exhaustive enumerates 2^n subsets, refused beyond 16 candidates; a
  // two-statement workload without generalization stays under the limit.
  engine::Workload small;
  small.push_back(workload_[0]);
  small.push_back(workload_[2]);
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kExhaustive;
  options.generalize = false;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 1;
  auto serial = advisor_->Recommend(small, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_LE(serial->basic_candidates, 16u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    auto parallel = advisor_->Recommend(small, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRecommendation(*serial, *parallel);
  }
}

TEST_F(ParallelAdvisorTest, SharedPoolMatchesRunLocalPool) {
  AdvisorOptions options;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 4;
  auto run_local = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(run_local.ok()) << run_local.status();

  util::ThreadPool pool(4);
  options.pool = &pool;
  auto shared = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ExpectSameRecommendation(*run_local, *shared);
  // The pool survives a run and serves the next one.
  auto again = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(again.ok()) << again.status();
  ExpectSameRecommendation(*run_local, *again);
}

TEST_F(ParallelAdvisorTest, ParallelTraceAnnotatesThreads) {
  AdvisorOptions options;
  options.disk_budget_bytes = 512 * 1024;
  options.threads = 2;
  auto rec = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  const obs::SpanRecord* search = rec->trace.Find("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->threads, 2);
  EXPECT_NE(rec->trace.ToJson().find("\"threads\":2"), std::string::npos);

  options.threads = 1;
  auto serial = advisor_->Recommend(workload_, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->trace.ToJson().find("\"threads\""), std::string::npos);
}

// Canonicalization: permuted or duplicated candidate ids must hit the
// same cache entries — no spurious misses, no extra optimizer calls.
TEST_F(ParallelAdvisorTest, ConfigurationIdsAreCanonicalized) {
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
// path (greedy+heuristics' usual case) and the uncached one run.
struct ExtensionCase {
  const char* workload;
  size_t threads;
  bool use_subconfigurations;
};

void PrintTo(const ExtensionCase& c, std::ostream* os) {
  *os << c.workload << ", " << c.threads << " threads"
      << (c.use_subconfigurations ? "" : ", one group");
}

class ExtensionBenefitTest
    : public ParallelAdvisorTest,
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

  util::ThreadPool pool(param.threads);
  BenefitEvaluator::Options options;
  options.use_subconfigurations = param.use_subconfigurations;
  options.pool = param.threads > 1 ? &pool : nullptr;
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
  std::mt19937 rng(static_cast<uint32_t>(param.threads * 131 +
                                         param.use_subconfigurations));
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
      return name + "_" + std::to_string(info.param.threads) + "threads" +
             (info.param.use_subconfigurations ? "" : "_whole");
    });

// An extension probe polls the interrupt inside the groups it must
// compute, exactly as a full evaluation does: a cancelled probe fails,
// caches nothing, and a later probe computes the group cleanly.
TEST_F(ParallelAdvisorTest, ExtensionBenefitHonoursCancellation) {
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

// The sharded cache's in-flight dedup under contention: every key is
// computed exactly once no matter how many threads race for it, and
// hits + misses == total GetOrCompute calls.
TEST(BenefitCacheTest, ConcurrentGetOrComputeDedupesExactly) {
  BenefitCache cache;
  constexpr int kKeys = 32;
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::atomic<int>> computed(kKeys);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computed, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kIterations; ++i) {
        const int k = static_cast<int>(rng() % kKeys);
        auto value = cache.GetOrCompute({k, k + 1}, [&computed, k]() {
          computed[k].fetch_add(1);
          return Result<double>(k * 1.5);
        });
        ASSERT_TRUE(value.ok());
        ASSERT_EQ(*value, k * 1.5);
      }
    });
  }
  for (auto& t : threads) t.join();

  int total_computed = 0;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_LE(computed[k].load(), 1) << "key " << k << " computed twice";
    total_computed += computed[k].load();
  }
  EXPECT_EQ(cache.misses(), static_cast<size_t>(total_computed));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<size_t>(kThreads * kIterations));
}

// The same contract for one-member keys, which live in per-id slots:
// each id is computed once, and hits + misses == calls.
TEST(BenefitCacheTest, ConcurrentSingleSlotsDedupeExactly) {
  constexpr int kIds = 16;
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  BenefitCache cache(kIds);
  std::vector<std::atomic<int>> computed(kIds);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computed, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < kIterations; ++i) {
        const int id = static_cast<int>(rng() % kIds);
        auto value = cache.GetOrComputeSingle(id, [&computed, id]() {
          computed[id].fetch_add(1);
          // Hold the slot in kComputing long enough for others to wait.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return Result<double>(id * 2.5);
        });
        ASSERT_TRUE(value.ok());
        ASSERT_EQ(*value, id * 2.5);
        double peeked = 0;
        ASSERT_TRUE(cache.PeekSingle(id, &peeked));
        ASSERT_EQ(peeked, id * 2.5);
      }
    });
  }
  for (auto& t : threads) t.join();

  int total_computed = 0;
  for (int id = 0; id < kIds; ++id) {
    EXPECT_LE(computed[id].load(), 1) << "id " << id << " computed twice";
    total_computed += computed[id].load();
  }
  EXPECT_EQ(cache.misses(), static_cast<size_t>(total_computed));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<size_t>(kThreads * kIterations));
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
