// Micro-benchmarks (google-benchmark): XPath parsing, evaluation over
// generated documents, whole collection scans, and the containment test
// at the heart of index matching.

#include <benchmark/benchmark.h>

#include "engine/executor.h"
#include "engine/query_parser.h"
#include "optimizer/plan.h"
#include "storage/catalog.h"
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

// The same five shapes as whole statements (perfbench's scan text), each
// executed through the executor's collection scan over a full
// 20k/40k/10k-document TPoX store: every document is visited, so the
// structure and values a scan touches (tens of MB) stream through the
// caches instead of staying resident as in the 256-document rows above.
// Reports ns per examined document. The store is generated once per
// process, without statistics: the plan is a collection scan, so the
// optimizer has nothing to choose.
struct ScanStore {
  storage::DocumentStore store;
  storage::StatisticsCatalog statistics;
  storage::Catalog catalog{&store, &statistics};
};

ScanStore& FullTpoxStore() {
  static ScanStore* const db = [] {
    auto* s = new ScanStore;
    Random rng(42);
    const auto fill = [&](const char* name, size_t count, auto generate) {
      storage::Collection* coll = *s->store.CreateCollection(name);
      for (size_t i = 0; i < count; ++i) coll->Add(generate(i));
    };
    fill(tpox::kSecurityCollection, 20000, [&](size_t i) {
      return tpox::GenerateSecurityDocument(i, &rng);
    });
    fill(tpox::kOrderCollection, 40000, [&](size_t i) {
      return tpox::GenerateOrderDocument(i, 20000, &rng);
    });
    fill(tpox::kCustAccCollection, 10000, [&](size_t i) {
      return tpox::GenerateCustAccDocument(i, &rng);
    });
    return s;
  }();
  return *db;
}

void BM_CollectionScan(benchmark::State& state) {
  struct Shape {
    const char* name;
    const char* statement;
  };
  static const Shape kShapes[] = {
      {"yield",
       "for $s in SECURITY('SDOC')/Security[Yield > 5.05] return $s/Symbol"},
      {"pe",
       "for $s in SECURITY('SDOC')/Security where $s/PE > 31.05 "
       "return $s/Symbol"},
      {"sector",
       "for $s in SECURITY('SDOC')/Security "
       "where $s/SecInfo/*/Sector = \"Energy\" return $s/Symbol"},
      {"qty",
       "for $o in ORDER('ODOC')/FIXML/Order[OrdQty/@Qty >= 2510] "
       "return $o/@ID"},
      {"amount",
       "for $c in CUSTACC('CADOC')/Customer "
       "where $c/Accounts/Account/Balance/OnlineActualBal/Amount > "
       "500000.005 return $c/Id"},
  };
  const Shape& shape = kShapes[state.range(0)];
  ScanStore& db = FullTpoxStore();
  const auto statement = *engine::ParseStatement(shape.statement);
  optimizer::Plan plan;
  plan.kind = optimizer::Plan::Kind::kCollectionScan;
  engine::Executor executor(&db.store, &db.catalog);
  uint64_t docs = 0;
  for (auto _ : state) {
    const auto result = executor.Execute(statement, plan);
    if (!result.ok()) {
      state.SkipWithError("scan failed");
      break;
    }
    docs += result->docs_examined;
    benchmark::DoNotOptimize(result->result_count);
  }
  state.SetLabel(shape.name);
  state.counters["per_doc"] = benchmark::Counter(
      static_cast<double>(docs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CollectionScan)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

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
