// Index-build and ingest benchmark. Emits BENCH_index_build.json.
//
// Three experiments:
//
//  1. bulk vs incremental index build — the same PathValueIndex built by
//     incremental B-tree insertion (the reference path) and by bulk load
//     (extract -> sort -> bottom-up pack). Both must produce identical
//     ContentDigests; the bulk path is the raw-speed win (target: >= 3x
//     at >= 100k entries).
//
//  2. TPoX ingest — the path every loader runs (LoadXmlDirectory, the
//     demo generators, snapshot restore): xml::Parse plus Collection::Add
//     of serialized TPoX securities into a fresh collection, then one
//     BuildBulk per index, as Catalog::CreateIndex does, for three value
//     indexes. Reports docs/s and both legs; fatal if a document fails to
//     parse or an index ends up empty. (The last seed-pipeline comparison
//     is recorded in bench/baselines/index_build_ingest.json.)
//
//  3. online build stall window — build an index online while a mutator
//     thread writes under the exclusive lock; report the write-stall
//     window (exclusive-lock time) as a fraction of the whole build
//     (target: <= 10%), and verify the online result is digest-identical
//     to an offline rebuild of the final state.
//
// `--smoke` shrinks every size for the CI smoke test (bench label); the
// >= 3x build and <= 10% stall targets are asserted only at full size,
// where they are meaningful.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <shared_mutex>
#include <thread>

#include "bench/bench_common.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/online_build.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia::bench {
namespace {

xpath::IndexPattern SymbolPattern() {
  return xpath::IndexPattern{*xpath::ParsePattern("/Security/Symbol"),
                             xpath::ValueType::kString};
}

// One index entry per document, distinct keys. Symbols are
// hash-scrambled (odd-constant multiplication is a bijection on 2^64),
// so keys arrive in random order as real data does — ascending keys
// would hand the incremental path its best case (pure rightmost-leaf
// appends) and misstate the bulk-load win.
xml::Document EntryDoc(size_t seq) {
  xml::Document doc;
  const auto root = doc.AddRoot("Security");
  const uint64_t scrambled =
      static_cast<uint64_t>(seq) * 0x9E3779B97F4A7C15ull;
  doc.AddElement(root, "Symbol",
                 StringPrintf("SYM%016llx",
                              static_cast<unsigned long long>(scrambled)));
  doc.AddElement(root, "Yield", StringPrintf("%.1f", (seq % 97) / 10.0));
  return doc;
}

// ---------------------------------------------------------------------
// Experiment 1: bulk vs incremental build.

void BenchBuildPaths(BenchJsonWriter* json, size_t entries, bool full) {
  PrintHeader(StringPrintf("index build: %zu entries", entries));
  storage::DocumentStore store;
  storage::Collection* coll = *store.CreateCollection("C");
  for (size_t i = 0; i < entries; ++i) coll->Add(EntryDoc(i));

  // Both builds run twice and the second round is timed: the first grows
  // the heap to both indexes' footprint, so the timed round compares the
  // builds' own work rather than first-touch page faults.
  const xpath::IndexPattern pattern = SymbolPattern();
  double incremental_s = 0;
  double bulk_s = 0;
  uint32_t digest = 0;
  for (int round = 0; round < 2; ++round) {
    Stopwatch sw;
    storage::PathValueIndex incremental("inc", "C", pattern);
    incremental.Build(*coll);
    incremental_s = sw.ElapsedSeconds();

    sw.Restart();
    storage::PathValueIndex bulk("bulk", "C", pattern);
    bulk.BuildBulk(*coll);
    bulk_s = sw.ElapsedSeconds();

    digest = incremental.ContentDigest();
    if (bulk.ContentDigest() != digest) {
      std::fprintf(stderr, "fatal: bulk build diverged from incremental\n");
      std::exit(1);
    }
  }
  const double speedup = incremental_s / std::max(bulk_s, 1e-9);
  std::printf("  incremental   %8.3fs\n", incremental_s);
  std::printf("  bulk          %8.3fs  (%.2fx)\n", bulk_s, speedup);
  std::printf("  digests identical: 0x%08x\n", digest);
  json->AddResult(StringPrintf(
      "{\"experiment\": \"build\", \"entries\": %zu, "
      "\"incremental_seconds\": %.6f, \"bulk_serial_seconds\": %.6f, "
      "\"speedup_bulk\": %.2f}",
      entries, incremental_s, bulk_s, speedup));
  if (full && speedup < 3.0) {
    std::fprintf(stderr,
                 "fatal: bulk build %.2fx < 3x target at %zu entries\n",
                 speedup, entries);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------
// Experiment 2: TPoX ingest on the loaders' path.

std::vector<xpath::IndexPattern> IngestPatterns() {
  return {
      xpath::IndexPattern{*xpath::ParsePattern("/Security/Symbol"),
                          xpath::ValueType::kString},
      xpath::IndexPattern{*xpath::ParsePattern("/Security/Yield"),
                          xpath::ValueType::kNumeric},
      xpath::IndexPattern{*xpath::ParsePattern("/Security/SecInfo/*/Sector"),
                          xpath::ValueType::kString},
  };
}

void BenchTpoxIngest(BenchJsonWriter* json, size_t docs) {
  PrintHeader(StringPrintf("tpox ingest: %zu documents, 3 indexes", docs));
  Random rng(42);
  std::vector<std::string> texts;
  texts.reserve(docs);
  size_t total_bytes = 0;
  for (size_t i = 0; i < docs; ++i) {
    texts.push_back(xml::Serialize(tpox::GenerateSecurityDocument(i, &rng)));
    total_bytes += texts.back().size();
  }

  // What every loader does: parse and Add into a fresh collection...
  storage::DocumentStore store;
  storage::Collection* coll = *store.CreateCollection("SDOC");
  Stopwatch sw;
  for (const std::string& text : texts) {
    auto doc = xml::Parse(text);
    if (!doc.ok()) {
      std::fprintf(stderr, "fatal: %s\n", doc.status().ToString().c_str());
      std::exit(1);
    }
    coll->Add(*std::move(doc));
  }
  const double parse_add_s = sw.ElapsedSeconds();

  // ...then Catalog::CreateIndex bulk-builds each index.
  sw.Restart();
  std::vector<std::unique_ptr<storage::PathValueIndex>> indexes;
  for (const xpath::IndexPattern& pattern : IngestPatterns()) {
    indexes.push_back(std::make_unique<storage::PathValueIndex>(
        StringPrintf("i%zu", indexes.size()), "SDOC", pattern));
    indexes.back()->BuildBulk(*coll);
  }
  const double bulk_build_s = sw.ElapsedSeconds();
  for (size_t p = 0; p < indexes.size(); ++p) {
    if (indexes[p]->entry_count() == 0) {
      std::fprintf(stderr, "fatal: ingest index %zu is empty\n", p);
      std::exit(1);
    }
  }

  const double docs_per_s =
      docs / std::max(parse_add_s + bulk_build_s, 1e-9);
  std::printf("  parse+add     %8.3fs\n", parse_add_s);
  std::printf("  bulk build    %8.3fs  (3 indexes)\n", bulk_build_s);
  std::printf("  %.0f docs/s; tag pool %zu labels\n", docs_per_s,
              xml::Tag::PoolSize());
  json->AddResult(StringPrintf(
      "{\"experiment\": \"ingest\", \"docs\": %zu, \"bytes\": %zu, "
      "\"parse_add_seconds\": %.6f, \"bulk_build_seconds\": %.6f, "
      "\"docs_per_second\": %.0f, \"tag_pool_size\": %zu}",
      docs, total_bytes, parse_add_s, bulk_build_s, docs_per_s,
      xml::Tag::PoolSize()));
}

// ---------------------------------------------------------------------
// Experiment 3: online build stall window under a write storm.

void BenchOnlineStall(BenchJsonWriter* json, size_t docs, bool full) {
  PrintHeader(StringPrintf("online build stall: %zu documents", docs));
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  storage::Catalog catalog(&store, &stats);
  std::shared_mutex db_mu;
  storage::Collection* coll = *store.CreateCollection("C");
  for (size_t i = 0; i < docs; ++i) coll->Add(EntryDoc(i));

  // Offline reference: the whole build time IS the write-stall window.
  Stopwatch sw;
  {
    std::unique_lock<std::shared_mutex> lock(db_mu);
    if (!catalog.CreateIndex("offline", "C", SymbolPattern()).ok()) {
      std::fprintf(stderr, "fatal: offline build failed\n");
      std::exit(1);
    }
  }
  const double offline_s = sw.ElapsedSeconds();

  std::atomic<bool> done{false};
  std::atomic<size_t> writes{0};
  std::thread mutator([&] {
    size_t seq = 10 * docs;
    while (!done.load(std::memory_order_acquire)) {
      std::unique_lock<std::shared_mutex> lock(db_mu);
      const xml::DocId id = coll->Add(EntryDoc(seq++));
      catalog.NotifyInsert("C", id, coll->Get(id));
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  storage::OnlineBuildReport report;
  auto built = storage::BuildIndexOnline(&catalog, &db_mu, "online", "C",
                                         SymbolPattern(), {}, nullptr,
                                         &report);
  done.store(true, std::memory_order_release);
  mutator.join();
  if (!built.ok()) {
    std::fprintf(stderr, "fatal: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }

  // The installed index must equal an offline rebuild of the final state.
  storage::PathValueIndex oracle("oracle", "C", SymbolPattern());
  oracle.Build(*coll);
  if ((*built)->physical->ContentDigest() != oracle.ContentDigest()) {
    std::fprintf(stderr, "fatal: online build diverged under writes\n");
    std::exit(1);
  }

  const double stall_frac =
      report.exclusive_seconds / std::max(report.total_seconds, 1e-9);
  std::printf("  offline build (lock held)  %8.3fs\n", offline_s);
  std::printf("  online total               %8.3fs\n", report.total_seconds);
  std::printf("  online write-stall window  %8.3fs  (%.1f%% of build)\n",
              report.exclusive_seconds, 100.0 * stall_frac);
  std::printf("  concurrent writes %zu, delta ops replayed %zu\n",
              writes.load(), report.delta_ops_applied);
  json->AddResult(StringPrintf(
      "{\"experiment\": \"online_stall\", \"docs\": %zu, "
      "\"offline_seconds\": %.6f, \"online_total_seconds\": %.6f, "
      "\"online_stall_seconds\": %.6f, \"stall_fraction\": %.4f, "
      "\"concurrent_writes\": %zu, \"delta_ops\": %zu}",
      docs, offline_s, report.total_seconds, report.exclusive_seconds,
      stall_frac, writes.load(), report.delta_ops_applied));
  if (full && stall_frac > 0.10) {
    std::fprintf(stderr, "fatal: stall window %.1f%% > 10%% target\n",
                 100.0 * stall_frac);
    std::exit(1);
  }
}

}  // namespace
}  // namespace xia::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool full = !smoke;
  xia::bench::BenchJsonWriter json("index_build");
  // Ingest runs first, on the process's pristine heap, as a loader does.
  // The build experiment times a second, warm round and the stall
  // experiment a share of one build, so neither depends on what ran
  // before it.
  xia::bench::BenchTpoxIngest(&json, full ? 30000 : 300);
  xia::bench::BenchBuildPaths(&json, full ? 150000 : 3000, full);
  xia::bench::BenchOnlineStall(&json, full ? 120000 : 3000, full);
  json.Write();
  return 0;
}
