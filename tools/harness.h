// Shared plumbing of the kill -9 harnesses (xia_crash_harness,
// xia_repl_harness, xia_failover_harness).
//
// Each harness keeps only its scenario logic. This library owns the rest:
//   * the crash-kind table entry and the self-SIGKILL countdown hook;
//   * forking a child and classifying how it ended (killed by SIGKILL,
//     converged with exit 42, or anything else);
//   * the server-node child body the repl and failover harnesses fork;
//   * the driver: `--seeds N`, `--kind NAME`, the kinds x seeds loop, the
//     named one-off scenarios, a per-process scratch base under $TMPDIR,
//     and the `k/n runs passed` summary and exit code.

#ifndef XIA_TOOLS_HARNESS_H_
#define XIA_TOOLS_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/server.h"
#include "util/status.h"
#include "wal/writer.h"

namespace xia::harness {

/// Where a child kills itself.
struct CrashKind {
  const char* name;
  /// Test-hook point whose firings count down to the SIGKILL.
  const char* hook_point;
  /// Roughly how often the point fires per run; the countdown is the seed
  /// modulo this, so different seeds die at different depths.
  int window;
};

/// 1 + seed % window: how many firings of the hook point the child lives
/// through, counting the fatal one.
int Countdown(const CrashKind& kind, uint64_t seed);

/// A test hook that SIGKILLs this process the `countdown`-th time `point`
/// fires. Firings before `*armed` is set (when `armed` is given) do not
/// count. A null `point` never fires.
wal::WalTestHook KillHook(const char* point, int countdown,
                          const std::atomic<bool>* armed = nullptr);

/// How a forked child ended.
enum class Fate {
  kKilled,     // SIGKILL (its own kill hook, or the parent's)
  kConverged,  // exit 42: the child reached its goal and exited cleanly
  kOther,      // any other exit, signal or timeout
};

Fate FateOf(int wstatus);

/// Forks a child that runs `body` and exits 7 if `body` returns (bodies
/// end in _exit). Returns the child's pid, or -1 if fork failed.
pid_t Fork(const std::function<void()>& body);

/// Waits up to `timeout_s` for `pid` to end and sets `*wstatus`; false on
/// timeout (the child is still running).
bool WaitForDeath(pid_t pid, double timeout_s, int* wstatus);

/// SIGKILLs and reaps `pid` (no-op for pid <= 0); returns its wait status.
int KillAndReap(pid_t pid);

/// Waits for `pid` to end (killing it after 90 s) and classifies its
/// fate. A kOther fate is reported on stderr as `who`.
Fate Reap(pid_t pid, const char* who);

/// Reaps a node child that must converge and returns its store digest.
Result<std::string> ReapConverged(pid_t pid, const std::string& digest_path,
                                  const char* who);

/// Reports a failed step of a run on stderr as "  what: status"; returns
/// status.ok().
bool Check(const char* what, const Status& status);

/// Polls up to 10 s for a port number written to `path`.
Result<uint16_t> WaitPortFile(const std::string& path);

/// Inserts one SDOC security. The ~700-byte pad makes a WAL record span
/// several writes, so the mid-write kill window opens.
std::string InsertStatement(const std::string& symbol, uint64_t yield = 5);

/// A WAL-backed leader seeded with a small demo TPoX database.
net::ServerOptions DemoLeaderOptions(const std::string& data_dir);

/// When a node child starts counting firings of its kill hook.
enum class HookArming {
  /// From process start: a follower's applier starts inside
  /// Server::Start, and a joining follower's snapshot install must count.
  kFromProcessStart,
  /// Once Server::Start has returned: demo seeding, recovery and the
  /// initial checkpoint fire the same points and must not count.
  kAfterStart,
};

/// One server node run in a forked child. Its control files are
/// <control_dir>/<name>.{port,target,digest}.
struct NodeSpec {
  std::string data_dir;
  std::string control_dir;
  /// Control-file prefix and follower id.
  std::string name;
  /// Seed the demo TPoX collections (first boot of the initial leader).
  bool seed_demo = false;
  /// Non-empty host = start as a follower of this endpoint.
  std::string leader_host;
  uint16_t leader_port = 0;
  /// SIGKILL self when hook_point has fired `countdown` times
  /// (nullptr = never crash).
  const char* hook_point = nullptr;
  int countdown = 0;
  /// Each scenario's fixed rule; see HookArming.
  HookArming arming = HookArming::kAfterStart;
  double quorum_timeout_ms = 8000;
  /// Checkpoint every 50 durable LSNs while leading, so a mid-checkpoint
  /// kill window opens during the stream.
  bool periodic_checkpoint = false;

  std::string File(const char* suffix) const {
    return control_dir + "/" + name + suffix;
  }
};

/// Forks a child that runs one cluster node: it writes its port file,
/// waits for the parent to publish a target LSN in its .target file,
/// converges to it (durable LSN as leader, applied LSN as follower; the
/// role can change at runtime via promote/follow), writes its store
/// digest and exits 42 — unless its kill hook fires first.
pid_t ForkNode(const NodeSpec& spec);

/// A harness-specific integer flag, e.g. {"--ops", &ops, 9}.
struct Flag {
  const char* name;
  int* value;
  int min;
};

struct Args {
  uint64_t seeds = 0;
  /// Empty = every kind and scenario.
  std::string kind;
};

/// Parses `--seeds N` (N >= 1), `--kind NAME` and `flags`. On a bad
/// argument prints the usage line and returns nullopt (exit 2).
std::optional<Args> ParseArgs(int argc, char** argv, uint64_t default_seeds,
                              const std::vector<Flag>& flags = {});

/// One (kind, seed) run in the fresh directory `dir`. Sets `*killed` when
/// the scheduled kill fired. Returns true iff the run passed.
using RunKind = std::function<bool(const CrashKind& kind, uint64_t seed,
                                   const std::string& dir, bool* killed)>;

/// A named one-off run, selectable with --kind like a crash kind.
struct Scenario {
  const char* name;
  std::function<bool(const std::string& dir)> run;
};

/// Runs every selected kind over seeds 1..N, then every selected
/// scenario. Each run gets its own directory under
/// $TMPDIR/<program>_<pid>, removed when the run passes; the base goes
/// once every run has passed. Returns 0 iff every run passed, 1 if one
/// failed, 2 for an unknown --kind (before anything runs).
int Drive(const char* program, const Args& args,
          const std::vector<CrashKind>& kinds, const RunKind& run_kind,
          const std::vector<Scenario>& scenarios = {});

}  // namespace xia::harness

#endif  // XIA_TOOLS_HARNESS_H_
