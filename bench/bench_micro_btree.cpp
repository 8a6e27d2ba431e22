// Micro-benchmarks (google-benchmark): the B+-tree backing XML value
// indexes — inserts, point lookups, range scans, and mixed insert/erase —
// and the CRC-32 that checksums every net frame, WAL record and snapshot
// section, alone and inside one frame encode + decode.

#include <benchmark/benchmark.h>

#include <string>

#include "net/wire.h"
#include "storage/btree.h"
#include "storage/index.h"
#include "util/crc32.h"
#include "util/random.h"

namespace {

using xia::Random;
using xia::storage::BTree;

void BM_BTreeInsertSequential(benchmark::State& state) {
  for (auto _ : state) {
    BTree<int64_t> tree;
    for (int64_t i = 0; i < state.range(0); ++i) tree.Insert(i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertSequential)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_BTreeInsertRandom(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Random rng(42);
    std::vector<int64_t> keys;
    keys.reserve(static_cast<size_t>(state.range(0)));
    for (int64_t i = 0; i < state.range(0); ++i) {
      keys.push_back(static_cast<int64_t>(rng.Next()));
    }
    state.ResumeTiming();
    BTree<int64_t> tree;
    for (int64_t k : keys) tree.Insert(k);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsertRandom)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_BTreePointLookup(benchmark::State& state) {
  BTree<int64_t> tree;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) tree.Insert(i * 2);
  Random rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Contains(static_cast<int64_t>(rng.Uniform(
            static_cast<uint64_t>(n * 2)))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointLookup)->Arg(16384)->Arg(131072);

void BM_BTreeRangeScan(benchmark::State& state) {
  BTree<int64_t> tree;
  const int64_t n = 131072;
  for (int64_t i = 0; i < n; ++i) tree.Insert(i);
  const int64_t width = state.range(0);
  Random rng(9);
  for (auto _ : state) {
    const int64_t lo =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n - width)));
    int64_t count = 0;
    tree.Scan(lo, lo + width - 1, [&](const int64_t&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_BTreeRangeScan)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BTreeChurn(benchmark::State& state) {
  // Insert/erase mix at a steady size, exercising split/merge paths.
  BTree<int64_t> tree;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) tree.Insert(i);
  Random rng(11);
  for (auto _ : state) {
    const auto key =
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
    tree.Erase(key);
    tree.Insert(key);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BTreeChurn)->Arg(16384)->Arg(131072);

void BM_IndexKeyCompare(benchmark::State& state) {
  xia::storage::IndexKey a;
  a.type = xia::xpath::ValueType::kString;
  a.str = "EnergySectorValueString";
  a.rid = {1, 2};
  xia::storage::IndexKey b = a;
  b.rid = {1, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
    benchmark::DoNotOptimize(b < a);
  }
}
BENCHMARK(BM_IndexKeyCompare);

void BM_Crc32(benchmark::State& state) {
  Random rng(7);
  const std::string data = rng.NextString(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xia::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(64 * 1024);

// One reply-sized frame (560 B payload, about an indexed point query's
// result row) through EncodeFrame and FrameReader::Poll: both CRC passes
// plus the header checks and buffer copies of a request path hop.
void BM_FrameRoundTrip(benchmark::State& state) {
  Random rng(8);
  const std::string payload = rng.NextString(560);
  xia::net::FrameReader reader;
  xia::net::Frame frame;
  uint64_t request_id = 0;
  for (auto _ : state) {
    reader.Feed(
        xia::net::EncodeFrame(xia::net::MsgType::kReply, ++request_id, payload));
    if (reader.Poll(&frame, nullptr) != xia::net::FrameReader::Next::kFrame) {
      state.SkipWithError("frame did not decode");
      break;
    }
    benchmark::DoNotOptimize(frame.payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameRoundTrip);

}  // namespace

BENCHMARK_MAIN();
