// Two-node kill -9 crash harness for xia::repl.
//
// Every run starts a WAL-backed leader in-process (net::Server, demo TPoX
// data), applies a deterministic mutation stream over loopback,
// checkpoints mid-stream (so joining followers exercise the
// snapshot-transfer path), and records the leader's store digest and
// durable LSN. For every (crash kind, seed) pair it then forks a follower
// child on a fresh data dir that subscribes to the leader and kills
// *itself* with kill -9 at a scheduled replication crash point:
//
//   apply-before-wal          record decoded, local WAL append pending
//   apply-mid-apply           local WAL append durable, in-memory apply
//                             pending (restart replays from the local log)
//   snapshot-before-install   snapshot frame received, nothing installed
//   snapshot-mid-install      snapshot files staged, manifest not committed
//   local-checkpoint          follower's own checkpoint half done
//
// A second child then rejoins on the same data dir with no kill hook and
// must converge: its store digest must byte-equal the leader's. The
// leader-restart scenario restarts the *leader* mid-stream (same port,
// same data dir) and requires a live follower — started while the leader
// was still down, so the connect-retry backoff path runs too — to
// resubscribe and converge without losing any acked LSN. Exit 0 iff
// every run passes.
//
// Usage: xia_repl_harness [--seeds N] [--kind NAME]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "util/atomic_file.h"
#include "util/random.h"
#include "util/status.h"

namespace xia {
namespace {

/// Where in the follower's apply path the child kills itself.
const std::vector<harness::CrashKind> kCrashKinds = {
    {"apply-before-wal", "repl.apply.before_wal", 24},
    {"apply-mid-apply", "repl.apply.mid_apply", 24},
    {"snapshot-before-install", "repl.snapshot.before_install", 1},
    {"snapshot-mid-install", "repl.snapshot.mid_install", 1},
    {"local-checkpoint", "checkpoint.after_snapshot", 3},
};

/// The deterministic mutation stream for one seed, against the demo TPoX
/// SDOC collection (inserts must target an existing collection).
std::vector<std::string> GenMutations(uint64_t seed, int count) {
  Random rng(seed);
  std::vector<std::string> statements;
  std::vector<std::string> symbols;
  for (int i = 0; i < count; ++i) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 55 || symbols.empty()) {
      const std::string symbol =
          "RPL" + std::to_string(seed) + "N" + std::to_string(i);
      statements.push_back(harness::InsertStatement(symbol, rng.Uniform(9)));
      symbols.push_back(symbol);
    } else if (roll < 80) {
      statements.push_back(
          "update SDOC set /Security/Yield = " + std::to_string(rng.Uniform(9)) +
          " where /Security[Symbol = \"" +
          symbols[rng.Uniform(symbols.size())] + "\"]");
    } else {
      const size_t victim = rng.Uniform(symbols.size());
      statements.push_back("delete from SDOC where /Security[Symbol = \"" +
                           symbols[victim] + "\"]");
      symbols.erase(symbols.begin() + victim);
    }
  }
  return statements;
}

Status RunMutations(uint16_t port, const std::vector<std::string>& statements) {
  net::Client client;
  XIA_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  for (const std::string& statement : statements) {
    net::MutationRequest request;
    request.statement = statement;
    const Result<net::ExecReply> reply = client.Mutate(request);
    if (!reply.ok()) {
      return Status::Internal("mutation failed: " + reply.status().ToString() +
                              " (" + statement.substr(0, 60) + ")");
    }
  }
  return Status::OK();
}

/// The follower node of the run in `dir`. Its applier starts inside
/// Server::Start, so a kill hook counts firings from process start.
harness::NodeSpec Follower(const std::string& dir, uint16_t leader_port) {
  harness::NodeSpec spec;
  spec.data_dir = dir + "/follower";
  spec.control_dir = dir;
  spec.name = "follower";
  spec.leader_host = "127.0.0.1";
  spec.leader_port = leader_port;
  spec.arming = harness::HookArming::kFromProcessStart;
  return spec;
}

/// Publishes the leader's durable LSN as the follower's target and
/// returns the leader's store digest.
Result<std::string> PublishTarget(net::Server* leader,
                                  const harness::NodeSpec& follower) {
  XIA_RETURN_IF_ERROR(
      WriteFileAtomic(follower.File(".target"),
                      std::to_string(leader->GetReplStatus().durable_lsn)));
  return leader->StoreDigest();
}

/// The follower's digest must byte-equal the leader's.
bool SameDigest(const std::string& leader,
                const Result<std::string>& follower) {
  if (!harness::Check("follower digest", follower.status())) return false;
  if (*follower != leader) {
    std::fprintf(stderr, "  DIVERGED: leader=%s follower=%s\n",
                 leader.c_str(), follower->c_str());
    return false;
  }
  return true;
}

bool RunOne(const harness::CrashKind& kind, uint64_t seed,
            const std::string& dir, bool* killed) {
  net::Server leader(harness::DemoLeaderOptions(dir + "/leader"));
  if (!harness::Check("leader start", leader.Start())) return false;
  const bool pass = [&] {
    // Phase A -> checkpoint -> phase B: a joining follower needs the
    // snapshot (phase A predates the checkpoint horizon) *and* log
    // catch-up (phase B).
    const uint16_t port = leader.port();
    if (!harness::Check("phase A",
                        RunMutations(port, GenMutations(seed, 25))) ||
        !harness::Check("checkpoint", leader.CheckpointNow()) ||
        !harness::Check("phase B",
                        RunMutations(port, GenMutations(seed + 1000, 45)))) {
      return false;
    }
    harness::NodeSpec follower = Follower(dir, port);
    const Result<std::string> leader_digest = PublishTarget(&leader, follower);
    if (!harness::Check("publish target", leader_digest.status())) return false;
    follower.hook_point = kind.hook_point;
    follower.countdown = harness::Countdown(kind, seed);
    harness::Fate fate = harness::Reap(harness::ForkNode(follower), "follower");
    if (fate == harness::Fate::kKilled) {
      // Rejoin on the same data dir: recover the local WAL, resubscribe
      // from the last durable LSN, converge. No kill hook this time.
      *killed = true;
      follower.hook_point = nullptr;
      fate = harness::Reap(harness::ForkNode(follower), "rejoined follower");
    }
    if (fate != harness::Fate::kConverged) {
      std::fprintf(stderr, "  follower did not converge\n");
      return false;
    }
    return SameDigest(*leader_digest, ReadFile(follower.File(".digest")));
  }();
  (void)leader.Stop();
  return pass;
}

/// Leader restart: the follower starts while the leader is *down*
/// (connect retries with backoff), the leader comes back on the same port
/// and data dir, streams the rest, and the follower must converge with
/// every acked LSN intact.
bool RunLeaderRestart(const std::string& dir) {
  const std::string leader_dir = dir + "/leader";
  uint16_t port = 0;
  {
    net::Server leader(harness::DemoLeaderOptions(leader_dir));
    if (!harness::Check("leader start", leader.Start())) return false;
    port = leader.port();
    const bool ok =
        harness::Check("phase A", RunMutations(port, GenMutations(7, 20))) &&
        harness::Check("checkpoint", leader.CheckpointNow());
    if (!harness::Check("leader stop", leader.Stop()) || !ok) return false;
  }

  // The leader is down. Start the follower now: its applier must retry
  // with backoff until the leader returns.
  const harness::NodeSpec follower = Follower(dir, port);
  pid_t pid = harness::ForkNode(follower);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  net::ServerOptions options = harness::DemoLeaderOptions(leader_dir);
  options.demo.clear();  // the data dir recovers; no reseeding
  options.port = port;
  net::Server leader(options);
  bool pass = harness::Check("leader restart", leader.Start());
  if (pass) {
    pass = harness::Check("phase B", RunMutations(port, GenMutations(8, 30)));
  }
  if (pass) {
    const Result<std::string> leader_digest = PublishTarget(&leader, follower);
    pass = harness::Check("publish target", leader_digest.status());
    if (pass) {
      const Result<std::string> digest =
          harness::ReapConverged(pid, follower.File(".digest"), "follower");
      pid = -1;  // reaped
      pass = SameDigest(*leader_digest, digest);
    }
  }
  (void)leader.Stop();
  harness::KillAndReap(pid);
  return pass;
}

}  // namespace
}  // namespace xia

int main(int argc, char** argv) {
  const std::optional<xia::harness::Args> args =
      xia::harness::ParseArgs(argc, argv, 10);
  if (!args) return 2;
  return xia::harness::Drive("xia_repl_harness", *args, xia::kCrashKinds,
                             xia::RunOne,
                             {{"leader-restart", xia::RunLeaderRestart}});
}
