// Micro-benchmarks (google-benchmark): the cost of one what-if optimizer
// call. Both benchmarks plan the 11 TPoX queries in turn on the standard
// bench database with 20 virtual indexes from the advisor's candidate
// set. BM_WhatIfOptimizeFresh plans each statement from scratch
// (Optimize(statement): normalization, predicate extraction, the scan
// plan and the result estimate every call); BM_WhatIfOptimizePrepared
// plans statements prepared once, as the advisor's benefit evaluator
// does. The difference is what preparing saves per what-if call.
//
// More rows time the advisor's own bookkeeping around those calls, on the
// candidate set of one perfbench advise input (the 11 TPoX queries plus
// 100 synthetic statements) over the same database:
// BM_ConfigurationBenefitHit is one cache-hit probe shaped like a
// greedy+heuristics extension (about 25 members with disjoint affected
// sets plus one more), BM_GeneralizeCandidates expands the basic set to
// its fixpoint, BM_BuildDag builds the DAG of the generalized set,
// BM_Covers is one containment test of a candidate against a basic
// candidate of the same kind (every such pair in turn), and
// BM_GreedyHeuristicsSearch is one whole greedy+heuristics search at half
// the All-Index size, on a freshly initialized evaluator (its cache starts
// empty, as in a Recommend call).

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "advisor/benefit.h"
#include "advisor/dag.h"
#include "advisor/generalize.h"
#include "advisor/search.h"
#include "bench/bench_common.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "xpath/containment.h"

namespace {

using namespace xia;  // NOLINT

constexpr size_t kVirtualIndexes = 20;

struct WhatIfSetup {
  std::unique_ptr<bench::BenchContext> ctx = bench::MakeContext();
  engine::Workload workload = bench::QueryWorkload();
  std::unique_ptr<storage::Catalog> catalog;
  std::unique_ptr<optimizer::Optimizer> optimizer;

  WhatIfSetup() {
    catalog = std::make_unique<storage::Catalog>(&ctx->store,
                                                 &ctx->statistics);
    auto set = ctx->advisor->BuildCandidates(workload, /*generalize=*/true);
    if (!set.ok()) std::exit(1);
    for (size_t i = 0; i < set->size() && i < kVirtualIndexes; ++i) {
      const advisor::Candidate& c = (*set)[i];
      if (!catalog
               ->CreateVirtualIndex(StringPrintf("v%zu", i), c.collection,
                                    c.pattern, &c.stats)
               .ok()) {
        std::exit(1);
      }
    }
    optimizer = std::make_unique<optimizer::Optimizer>(
        &ctx->store, catalog.get(), &ctx->statistics);
  }
};

const WhatIfSetup& Setup() {
  static const WhatIfSetup setup;
  return setup;
}

void BM_WhatIfOptimizeFresh(benchmark::State& state) {
  const WhatIfSetup& setup = Setup();
  size_t i = 0;
  for (auto _ : state) {
    auto plan =
        setup.optimizer->Optimize(setup.workload[i++ % setup.workload.size()]);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfOptimizeFresh);

void BM_WhatIfOptimizePrepared(benchmark::State& state) {
  const WhatIfSetup& setup = Setup();
  std::vector<optimizer::PreparedStatement> prepared;
  for (const engine::Statement& stmt : setup.workload) {
    auto p = setup.optimizer->Prepare(stmt);
    if (!p.ok()) {
      state.SkipWithError("prepare failed");
      return;
    }
    prepared.push_back(std::move(*p));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto plan = setup.optimizer->Optimize(prepared[i++ % prepared.size()]);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfOptimizePrepared);

struct AdvisorSetup {
  std::unique_ptr<bench::BenchContext> ctx = bench::MakeContext();
  engine::Workload workload;
  advisor::CandidateSet basic;
  advisor::CandidateSet generalized;

  AdvisorSetup() {
    workload = bench::QueryWorkload();
    Random rng(7);
    for (engine::Statement& stmt :
         bench::Unwrap(tpox::GenerateSyntheticWorkload(
                           ctx->statistics,
                           {tpox::kSecurityCollection, tpox::kOrderCollection,
                            tpox::kCustAccCollection},
                           100, &rng),
                       "synthetic workload")) {
      workload.push_back(std::move(stmt));
    }
    workload = engine::CompactWorkload(workload);
    basic = bench::Unwrap(
        ctx->advisor->BuildCandidates(workload, /*generalize=*/false),
        "basic candidates");
    generalized = bench::Unwrap(
        ctx->advisor->BuildCandidates(workload, /*generalize=*/true),
        "candidates");
    advisor::BuildDag(&generalized);
  }
};

const AdvisorSetup& Advisor() {
  static const AdvisorSetup setup;
  return setup;
}

void BM_ConfigurationBenefitHit(benchmark::State& state) {
  const AdvisorSetup& setup = Advisor();
  storage::Catalog catalog(&setup.ctx->store, &setup.ctx->statistics);
  advisor::BenefitEvaluator evaluator(
      &setup.workload, &setup.generalized, &catalog, &setup.ctx->statistics,
      &setup.ctx->store, advisor::BenefitEvaluator::Options());
  if (!evaluator.Initialize().ok()) {
    state.SkipWithError("initialize failed");
    return;
  }
  // Up to 25 members with pairwise disjoint affected sets, then the first
  // candidate left out: the shape of a greedy+heuristics extension probe.
  std::vector<int> config;
  std::vector<char> used(setup.workload.size(), 0);
  int extra = -1;
  for (const advisor::Candidate& c : setup.generalized.candidates) {
    bool disjoint = config.size() < 25;
    for (size_t s : c.affected) disjoint = disjoint && !used[s];
    if (!disjoint) {
      if (extra < 0) extra = c.id;
      continue;
    }
    for (size_t s : c.affected) used[s] = 1;
    config.push_back(c.id);
  }
  config.push_back(extra);
  if (!evaluator.ConfigurationBenefit(config).ok()) {
    state.SkipWithError("benefit failed");
    return;
  }
  for (auto _ : state) {
    auto benefit = evaluator.ConfigurationBenefit(config);
    benchmark::DoNotOptimize(benefit.ok());
  }
  state.counters["members"] = static_cast<double>(config.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfigurationBenefitHit);

void BM_GeneralizeCandidates(benchmark::State& state) {
  const AdvisorSetup& setup = Advisor();
  for (auto _ : state) {
    state.PauseTiming();
    advisor::CandidateSet set = setup.basic;
    state.ResumeTiming();
    advisor::GeneralizeCandidates(&set);
    benchmark::DoNotOptimize(set.size());
  }
  state.counters["candidates"] =
      static_cast<double>(setup.generalized.size());
}
BENCHMARK(BM_GeneralizeCandidates);

void BM_BuildDag(benchmark::State& state) {
  const AdvisorSetup& setup = Advisor();
  advisor::CandidateSet set = setup.generalized;
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor::BuildDag(&set).size());
  }
  state.counters["candidates"] = static_cast<double>(set.size());
}
BENCHMARK(BM_BuildDag);

void BM_Covers(benchmark::State& state) {
  const AdvisorSetup& setup = Advisor();
  const advisor::CandidateSet& set = setup.generalized;
  std::vector<std::pair<const xpath::Path*, const xpath::Path*>> pairs;
  for (const advisor::Candidate& c : set.candidates) {
    for (size_t b = 0; b < set.basic_count; ++b) {
      if (advisor::SameIndexKind(c, set[b])) {
        pairs.emplace_back(&c.pattern.path, &set[b].pattern.path);
      }
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [index, query] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(xpath::Covers(*index, *query));
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Covers);

void BM_GreedyHeuristicsSearch(benchmark::State& state) {
  const AdvisorSetup& setup = Advisor();
  const advisor::CandidateSet& set = setup.generalized;
  double all_index = 0;
  for (size_t b = 0; b < set.basic_count; ++b) {
    all_index += static_cast<double>(set[b].size_bytes());
  }
  advisor::SearchOptions options;
  options.disk_budget_bytes = 0.5 * all_index;
  uint64_t optimizer_calls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    storage::Catalog catalog(&setup.ctx->store, &setup.ctx->statistics);
    advisor::BenefitEvaluator evaluator(
        &setup.workload, &set, &catalog, &setup.ctx->statistics,
        &setup.ctx->store, advisor::BenefitEvaluator::Options());
    if (!evaluator.Initialize().ok()) {
      state.SkipWithError("initialize failed");
      return;
    }
    const uint64_t calls_before = evaluator.optimizer_calls();
    state.ResumeTiming();
    auto outcome =
        advisor::RunSearch(advisor::SearchAlgorithm::kGreedyWithHeuristics,
                           set, {}, &evaluator, options);
    if (!outcome.ok()) {
      state.SkipWithError("search failed");
      return;
    }
    benchmark::DoNotOptimize(outcome->benefit);
    optimizer_calls = evaluator.optimizer_calls() - calls_before;
  }
  state.counters["optimizer_calls"] = static_cast<double>(optimizer_calls);
}
BENCHMARK(BM_GreedyHeuristicsSearch);

}  // namespace

BENCHMARK_MAIN();
