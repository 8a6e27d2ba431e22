// xia::fault — deterministic fault injection for the whole stack.
//
// A FaultPoint is a named site in production code where an artificial
// error can be injected. Sites are declared with XIA_FAULT_INJECT(name)
// inside any function returning Status or Result<T>; when the point
// fires, the function returns an injected kInternal Status whose message
// starts with "fault injected:". Points are *disarmed* by default and
// cost exactly one relaxed atomic load per hit in that state, so they can
// live on hot paths (optimizer entry, executor scans, index probes).
//
// Arming:
//   * probability mode  — fires on each hit with probability p, driven by
//     a seeded xoshiro PRNG (util/random), so equal seeds replay equal
//     fault schedules;
//   * nth-hit mode      — fires exactly once, on the Nth hit after arming
//     (hit counting starts at 1), for precise "the 3rd B-tree allocation
//     fails" scenarios.
//
// Configuration sources:
//   * programmatic: FaultRegistry::Global().Arm("xia.fault.snapshot.read",
//     FaultSpec::Probability(0.01));
//   * spec strings / environment: XIA_FAULTS="name=p0.5,name2=n3"
//     (XIA_FAULTS_SEED seeds the PRNGs), parsed by ConfigureFromSpec /
//     ConfigureFromEnv — both CLI tools call ConfigureFromEnv at startup.
//
// Every armed point reports through xia::obs: `<name>.hits` counts hits
// while armed, `<name>.fired` counts injections, and the process-wide
// `xia.fault.fired` totals them. Disarmed hits are deliberately not
// counted — the disarmed path must stay a single atomic load.
//
// The canonical injection-point catalog lives in fault::points below and
// is mirrored in DESIGN.md §10; the fault-matrix test arms every entry in
// turn and proves the advise pipeline fails cleanly under each.

#ifndef XIA_FAULT_FAULT_H_
#define XIA_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace xia::fault {

/// Canonical injection-point names. Registered lazily on first hit or
/// arm; listed here so tests and tools can enumerate the catalog without
/// having executed every code path first.
namespace points {
inline constexpr const char* kSnapshotRead = "xia.fault.snapshot.read";
inline constexpr const char* kSnapshotWrite = "xia.fault.snapshot.write";
inline constexpr const char* kWorkloadRead = "xia.fault.workload.read";
inline constexpr const char* kWorkloadWrite = "xia.fault.workload.write";
inline constexpr const char* kIndexBuild = "xia.fault.index.build";
inline constexpr const char* kIndexBuildSwap = "xia.fault.index.build_swap";
inline constexpr const char* kBtreeAlloc = "xia.fault.btree.alloc";
inline constexpr const char* kIndexLookup = "xia.fault.index.lookup";
inline constexpr const char* kOptimizerPlan = "xia.fault.optimizer.plan";
inline constexpr const char* kExecutorScan = "xia.fault.executor.scan";
inline constexpr const char* kAdvisorEnumerate = "xia.fault.advisor.enumerate";
inline constexpr const char* kAdvisorBenefit = "xia.fault.advisor.benefit";
inline constexpr const char* kAdvisorSearch = "xia.fault.advisor.search";
inline constexpr const char* kOnlineAdvise = "xia.fault.online.advise";
inline constexpr const char* kWalAppend = "xia.fault.wal.append";
inline constexpr const char* kWalFsync = "xia.fault.wal.fsync";
inline constexpr const char* kWalReplay = "xia.fault.wal.replay";
inline constexpr const char* kNetAccept = "xia.fault.net.accept";
inline constexpr const char* kNetRead = "xia.fault.net.read";
inline constexpr const char* kNetWrite = "xia.fault.net.write";
inline constexpr const char* kReplSend = "xia.fault.repl.send";
inline constexpr const char* kReplRecv = "xia.fault.repl.recv";
inline constexpr const char* kReplApply = "xia.fault.repl.apply";
inline constexpr const char* kReplSnapshotXfer = "xia.fault.repl.snapshot_xfer";
inline constexpr const char* kReplQuorumWait = "xia.fault.repl.quorum_wait";
inline constexpr const char* kReplPromote = "xia.fault.repl.promote";
}  // namespace points

/// Every canonical point, for matrix-style iteration.
inline constexpr const char* kAllPoints[] = {
    points::kSnapshotRead,     points::kSnapshotWrite,
    points::kWorkloadRead,     points::kWorkloadWrite,
    points::kIndexBuild,       points::kIndexBuildSwap,
    points::kBtreeAlloc,
    points::kIndexLookup,      points::kOptimizerPlan,
    points::kExecutorScan,     points::kAdvisorEnumerate,
    points::kAdvisorBenefit,   points::kAdvisorSearch,
    points::kOnlineAdvise,     points::kWalAppend,
    points::kWalFsync,         points::kWalReplay,
    points::kNetAccept,        points::kNetRead,
    points::kNetWrite,         points::kReplSend,
    points::kReplRecv,         points::kReplApply,
    points::kReplSnapshotXfer, points::kReplQuorumWait,
    points::kReplPromote,
};

/// How an armed point decides to fire.
struct FaultSpec {
  enum class Mode { kDisarmed, kProbability, kNthHit };

  Mode mode = Mode::kDisarmed;
  double probability = 0;  ///< kProbability: chance per hit, clamped [0,1]
  uint64_t nth = 0;        ///< kNthHit: 1-based hit index that fires once

  static FaultSpec Probability(double p) {
    FaultSpec s;
    s.mode = Mode::kProbability;
    s.probability = p;
    return s;
  }
  static FaultSpec NthHit(uint64_t n) {
    FaultSpec s;
    s.mode = Mode::kNthHit;
    s.nth = n;
    return s;
  }

  /// Parses "p0.5" / "n3". Returns InvalidArgument on anything else.
  static Result<FaultSpec> Parse(const std::string& text);
  /// "off", "p0.5", "n3".
  std::string ToString() const;
};

/// Point-in-time view of one point (for `faults` listings and tests).
struct FaultPointStatus {
  std::string name;
  FaultSpec spec;
  uint64_t hits = 0;   ///< hits while armed
  uint64_t fired = 0;  ///< injections
};

/// One named injection site. Created and owned by the FaultRegistry;
/// pointers are stable for the registry's lifetime, so call sites cache
/// them in function-local statics.
class FaultPoint {
 public:
  explicit FaultPoint(std::string name);

  const std::string& name() const { return name_; }

  /// One relaxed atomic load when disarmed; evaluates the armed spec
  /// (under the point's mutex) otherwise.
  bool ShouldFire() {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return EvalArmed();
  }

  /// The Status an injection returns. Message is
  /// "fault injected: <name>" so failures are attributable in logs.
  Status InjectedStatus() const;

  void Arm(const FaultSpec& spec, uint64_t seed);
  void Disarm();

  FaultPointStatus Snapshot() const;

 private:
  bool EvalArmed();

  const std::string name_;
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultSpec spec_;
  Random rng_;
  uint64_t hits_ = 0;
  uint64_t fired_ = 0;
};

/// Process-wide registry of fault points.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Finds or creates the named point. Stable pointer.
  FaultPoint* GetPoint(const std::string& name);

  /// Arms `name` (creating it if needed). The point's PRNG is seeded from
  /// the registry seed and the point name, so schedules are deterministic
  /// per (seed, name) and independent across points.
  void Arm(const std::string& name, const FaultSpec& spec);
  /// Disarms one point / every point.
  void Disarm(const std::string& name);
  void DisarmAll();

  /// Seed for subsequently armed points (existing arms are unaffected).
  void set_seed(uint64_t seed);
  uint64_t seed() const;

  /// Parses and applies "name=p0.5,name2=n3" (';' also accepted as a
  /// separator; empty entries ignored). Unknown names are fine — points
  /// are created on demand. Any malformed entry fails the whole call with
  /// InvalidArgument and applies nothing.
  Status ConfigureFromSpec(const std::string& spec);

  /// Reads XIA_FAULTS (spec) and XIA_FAULTS_SEED (uint64) from the
  /// environment. Missing variables are simply ignored.
  Status ConfigureFromEnv();

  /// Status of every registered point, sorted by name.
  std::vector<FaultPointStatus> Snapshot() const;

 private:
  mutable std::mutex mu_;
  uint64_t seed_ = 42;
  std::map<std::string, std::unique_ptr<FaultPoint>> points_;
};

/// RAII: disarms every fault point on destruction. Tests arm points
/// inside a scope so a failing assertion cannot leak an armed fault into
/// later tests.
class ScopedFaultDisarm {
 public:
  ScopedFaultDisarm() = default;
  ~ScopedFaultDisarm() { FaultRegistry::Global().DisarmAll(); }
  ScopedFaultDisarm(const ScopedFaultDisarm&) = delete;
  ScopedFaultDisarm& operator=(const ScopedFaultDisarm&) = delete;
};

}  // namespace xia::fault

/// Declares an injection site. When the point fires, returns an injected
/// Status (or Result<T> via implicit conversion) from the enclosing
/// function. Disarmed cost: one relaxed atomic load.
#define XIA_FAULT_INJECT(point_name)                                    \
  do {                                                                  \
    static ::xia::fault::FaultPoint* xia_fault_point_ =                 \
        ::xia::fault::FaultRegistry::Global().GetPoint(point_name);     \
    if (xia_fault_point_->ShouldFire())                                 \
      return xia_fault_point_->InjectedStatus();                        \
  } while (0)

#endif  // XIA_FAULT_FAULT_H_
