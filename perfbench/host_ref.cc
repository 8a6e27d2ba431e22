#include "host_ref.h"

#include <chrono>

namespace xia::perfbench {

namespace {

constexpr uint32_t kTableWords = 16384;  // 64 KiB: L1/L2 resident
constexpr uint32_t kIterations = 120000;

uint32_t g_table[kTableWords];
volatile uint64_t g_sink;

// noinline keeps the kernel one opaque call, so the compiler cannot hoist
// or fold it into the timing code around it.
[[gnu::noinline]] uint64_t Kernel(uint64_t x) {
  for (uint32_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint32_t slot = static_cast<uint32_t>(x) & (kTableWords - 1);
    const uint32_t old = g_table[slot];
    g_table[slot] = old + static_cast<uint32_t>(x >> 32);
    if ((old & 3u) == 0) x += old;
  }
  return x;
}

}  // namespace

double TimeHostRef() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = Kernel(g_sink | 1u);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace xia::perfbench
