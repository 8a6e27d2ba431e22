// Micro-benchmarks (google-benchmark): XPath parsing, evaluation over
// generated documents, and the containment test at the heart of index
// matching.

#include <benchmark/benchmark.h>

#include "tpox/tpox_data.h"
#include "util/random.h"
#include "xpath/containment.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace {

using namespace xia;  // NOLINT

void BM_XPathParse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = xpath::ParseQuery(
        "/Security[Yield > 4.5][SecInfo/*/Sector = \"Energy\"]/Name");
    benchmark::DoNotOptimize(q.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPathParse);

void BM_XPathEvaluateLinear(benchmark::State& state) {
  Random rng(1);
  std::vector<xml::Document> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(tpox::GenerateSecurityDocument(static_cast<size_t>(i),
                                                  &rng));
  }
  const auto pattern = *xpath::ParsePattern("/Security/SecInfo/*/Sector");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xpath::EvaluateLinear(docs[i++ % docs.size()], pattern));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPathEvaluateLinear);

void BM_XPathEvaluateDescendant(benchmark::State& state) {
  Random rng(2);
  std::vector<xml::Document> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(tpox::GenerateCustAccDocument(static_cast<size_t>(i),
                                                 &rng));
  }
  const auto pattern = *xpath::ParsePattern("//Amount");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xpath::EvaluateLinear(docs[i++ % docs.size()], pattern));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPathEvaluateDescendant);

void BM_XPathEvaluateWithPredicates(benchmark::State& state) {
  Random rng(3);
  std::vector<xml::Document> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(tpox::GenerateSecurityDocument(static_cast<size_t>(i),
                                                  &rng));
  }
  const auto query = *xpath::ParseQuery(
      "/Security[Yield > 4.5][SecInfo/*/Sector = \"Energy\"]");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xpath::Evaluate(docs[i++ % docs.size()], query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPathEvaluateWithPredicates);

// The five collection-scan shapes of perfbench's read_write workload, as
// the normalized binding path each one evaluates on every document, with a
// threshold near the middle of the value range. Per document this is the
// scan's evaluator work: one EvaluateInto with a reused scratch, as the
// executor's scan loop does it.
void BM_XPathEvaluatePredicate(benchmark::State& state) {
  struct Shape {
    const char* name;
    const char* query;
  };
  static const Shape kShapes[] = {
      {"yield", "/Security[Yield > 5.05]"},
      {"pe", "/Security[PE > 31.05]"},
      {"sector", "/Security[SecInfo/*/Sector = \"Energy\"]"},
      {"qty", "/FIXML/Order[OrdQty/@Qty >= 2510]"},
      {"amount",
       "/Customer[Accounts/Account/Balance/OnlineActualBal/Amount > "
       "500000.005]"},
  };
  const Shape& shape = kShapes[state.range(0)];
  Random rng(4);
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < 256; ++i) {
    switch (state.range(0)) {
      case 3:
        docs.push_back(tpox::GenerateOrderDocument(i, 256, &rng));
        break;
      case 4:
        docs.push_back(tpox::GenerateCustAccDocument(i, &rng));
        break;
      default:
        docs.push_back(tpox::GenerateSecurityDocument(i, &rng));
    }
  }
  const auto query = *xpath::ParseQuery(shape.query);
  xpath::EvalScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    xpath::EvaluateInto(docs[i++ % docs.size()], query, &scratch);
    benchmark::DoNotOptimize(scratch.nodes.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(shape.name);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XPathEvaluatePredicate)->DenseRange(0, 4);

void BM_ContainmentShallow(benchmark::State& state) {
  const auto index = *xpath::ParsePattern("/Security//*");
  const auto query = *xpath::ParsePattern("/Security/SecInfo/*/Sector");
  for (auto _ : state) {
    benchmark::DoNotOptimize(xpath::Covers(index, query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContainmentShallow);

void BM_ContainmentDeepGappy(benchmark::State& state) {
  // Worst-ish case: many descendant gaps force the subset-family closure.
  const auto index = *xpath::ParsePattern("//a//*//b//*//c//*");
  const auto query = *xpath::ParsePattern("/a/x/y/b/z/c//q//c/w");
  for (auto _ : state) {
    benchmark::DoNotOptimize(xpath::Covers(index, query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContainmentDeepGappy);

}  // namespace

BENCHMARK_MAIN();
