// Host-speed reference loop.
//
// A fixed amount of CPU work (integer mixing plus loads and stores into a
// 64 KiB static table) that touches no heap and calls nothing from libxia
// or the allocator, so no change to the database can make it faster or
// slower. xia_perfbench times it between blocks of operations and divides
// every latency by it (see README.md, "Host normalization").

#ifndef XIA_PERFBENCH_HOST_REF_H_
#define XIA_PERFBENCH_HOST_REF_H_

#include <cstdint>

namespace xia::perfbench {

/// Runs the reference kernel once and returns its wall time in
/// microseconds.
double TimeHostRef();

}  // namespace xia::perfbench

#endif  // XIA_PERFBENCH_HOST_REF_H_
