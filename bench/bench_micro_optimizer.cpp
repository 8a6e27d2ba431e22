// Micro-benchmarks (google-benchmark): the cost of one what-if optimizer
// call. Both benchmarks plan the 11 TPoX queries in turn on the standard
// bench database with 20 virtual indexes from the advisor's candidate
// set. BM_WhatIfOptimizeFresh plans each statement from scratch
// (Optimize(statement): normalization, predicate extraction, the scan
// plan and the result estimate every call); BM_WhatIfOptimizePrepared
// plans statements prepared once, as the advisor's benefit evaluator
// does. The difference is what preparing saves per what-if call.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"

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

}  // namespace

BENCHMARK_MAIN();
