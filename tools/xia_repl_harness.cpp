// Two-node kill -9 crash harness for xia::repl (ISSUE 8 headline test).
//
// The parent process runs a WAL-backed leader (in-process net::Server,
// demo TPoX data), applies a deterministic mutation stream over loopback,
// checkpoints mid-stream (so joining followers exercise the
// snapshot-transfer path), and records the leader's store digest and
// durable LSN. For every (crash kind, seed) pair it then forks a follower
// child on a fresh data dir that subscribes to the leader and SIGKILLs
// *itself* at a scheduled replication crash point:
//
//   recv-mid-frame            a record's bytes half-received, none applied
//   apply-before-wal          record decoded, local WAL append pending
//   apply-mid-apply           local WAL append durable, in-memory apply
//                             pending (restart replays from the local log)
//   snapshot-before-install   snapshot frame received, nothing installed
//   snapshot-mid-install      snapshot files staged, manifest not committed
//   local-checkpoint          follower's own checkpoint half done
//
// A second child then rejoins on the same data dir with no kill hook and
// must converge: its store digest must byte-equal the leader's. A final
// scenario restarts the *leader* mid-stream (same port, same data dir)
// and requires a live follower — started while the leader was still
// down, so the connect-retry backoff path runs too — to resubscribe and
// converge without losing any acked LSN. Exit 0 iff every run passes.
//
// Usage: xia_repl_harness [--seeds N] [--kind NAME] [--skip-restart]

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "tpox/tpox_data.h"
#include "util/atomic_file.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace xia {
namespace {

namespace fs = std::filesystem;

/// Where in the follower's apply path the child kills itself.
struct CrashKind {
  const char* name;
  /// repl_test_hook point; nullptr = never crash (rejoin child).
  const char* hook_point;
  /// Roughly how often the point fires per run; the countdown is seeded
  /// modulo this so different seeds crash at different depths.
  int window;
};

constexpr CrashKind kCrashKinds[] = {
    {"recv-mid-frame", "repl.recv.mid_frame", 6},
    {"apply-before-wal", "repl.apply.before_wal", 24},
    {"apply-mid-apply", "repl.apply.mid_apply", 24},
    {"snapshot-before-install", "repl.snapshot.before_install", 1},
    {"snapshot-mid-install", "repl.snapshot.mid_install", 1},
    {"local-checkpoint", "checkpoint.after_snapshot", 3},
};

constexpr double kConvergeTimeoutSeconds = 60.0;

/// The deterministic mutation stream for one seed, against the demo TPoX
/// SDOC collection (inserts must target an existing collection). Inserts
/// carry a ~700-byte pad so replication batches span several TCP reads
/// and the mid-frame kill window actually opens.
std::vector<std::string> GenMutations(uint64_t seed, int count) {
  Random rng(seed);
  std::vector<std::string> statements;
  std::vector<std::string> symbols;
  const std::string pad(700, 'x');
  for (int i = 0; i < count; ++i) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 55 || symbols.empty()) {
      const std::string symbol =
          "RPL" + std::to_string(seed) + "N" + std::to_string(i);
      statements.push_back("insert into SDOC <Security><Symbol>" + symbol +
                           "</Symbol><Yield>" + std::to_string(rng.Uniform(9)) +
                           "</Yield><Pad>" + pad + "</Pad></Security>");
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

net::ServerOptions LeaderOptions(const std::string& data_dir) {
  net::ServerOptions options;
  options.data_dir = data_dir;
  options.demo = "tpox";
  options.demo_tpox_scale = tpox::TpoxScale{30, 40, 20, 42};
  return options;
}

/// Child body: run a follower against the leader, converge to target_lsn,
/// write the store digest, exit 42. With a hook point armed, SIGKILL self
/// when the countdown reaches zero instead. Never returns.
[[noreturn]] void RunFollowerChild(const std::string& data_dir,
                                   uint16_t leader_port,
                                   const char* hook_point, int countdown,
                                   uint64_t target_lsn,
                                   const std::string& digest_path,
                                   const std::string& target_lsn_path) {
  net::ServerOptions options;
  options.data_dir = data_dir;
  options.follow_host = "127.0.0.1";
  options.follow_port = leader_port;
  options.follower_id = "harness-follower";
  options.repl_checkpoint_every = 16;
  std::atomic<int> remaining{countdown};
  if (hook_point != nullptr) {
    options.repl_test_hook = [&remaining, hook_point](const char* point) {
      if (std::strcmp(point, hook_point) == 0 &&
          remaining.fetch_sub(1) == 1) {
        ::kill(::getpid(), SIGKILL);
      }
    };
  }
  net::Server server(options);
  if (const Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "  follower start failed: %s\n",
                 started.ToString().c_str());
    ::_exit(4);
  }
  Stopwatch timer;
  while (true) {
    if (timer.ElapsedSeconds() > kConvergeTimeoutSeconds) {
      const net::ReplStatus rs = server.GetReplStatus();
      std::fprintf(stderr,
                   "  follower convergence timeout: applied_lsn=%llu "
                   "target=%llu connect_failures=%llu last_error=%s\n",
                   static_cast<unsigned long long>(rs.applier.applied_lsn),
                   static_cast<unsigned long long>(target_lsn),
                   static_cast<unsigned long long>(rs.applier.connect_failures),
                   rs.applier.last_error.c_str());
      ::_exit(5);
    }
    // The leader-restart scenario publishes the target LSN only once the
    // post-restart mutations are in; poll for it.
    if (target_lsn == 0) {
      const Result<std::string> text = ReadFile(target_lsn_path);
      if (text.ok()) target_lsn = std::strtoull(text->c_str(), nullptr, 10);
      if (target_lsn == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
    }
    const net::ReplStatus rs = server.GetReplStatus();
    if (!rs.applier.sticky_error.empty()) {
      std::fprintf(stderr, "  follower diverged: %s\n",
                   rs.applier.sticky_error.c_str());
      ::_exit(6);
    }
    if (rs.applier.applied_lsn >= target_lsn) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Result<std::string> digest = server.StoreDigest();
  if (!digest.ok()) {
    std::fprintf(stderr, "  follower digest failed: %s\n",
                 digest.status().ToString().c_str());
    ::_exit(7);
  }
  if (const Status wrote = WriteFileAtomic(digest_path, *digest);
      !wrote.ok()) {
    std::fprintf(stderr, "  follower digest write failed: %s\n",
                 wrote.ToString().c_str());
    ::_exit(8);
  }
  (void)server.Stop();
  ::_exit(42);
}

/// Forks a follower child; returns true if it was SIGKILLed, false if it
/// exited 42 (converged before reaching the crash point). Any other fate
/// aborts the harness.
bool ForkFollower(const std::string& data_dir, uint16_t leader_port,
                  const char* hook_point, int countdown, uint64_t target_lsn,
                  const std::string& digest_path, bool* ok) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    RunFollowerChild(data_dir, leader_port, hook_point, countdown, target_lsn,
                     digest_path, /*target_lsn_path=*/"");
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
    *ok = true;
    return true;
  }
  *ok = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 42;
  if (!*ok) {
    std::fprintf(stderr, "  follower child died unexpectedly (wstatus=%d)\n",
                 wstatus);
  }
  return false;
}

bool RunOne(const CrashKind& kind, uint64_t seed, const std::string& base) {
  const std::string tag = std::string(kind.name) + "-" + std::to_string(seed);
  const std::string leader_dir = base + "/" + tag + "-leader";
  const std::string follower_dir = base + "/" + tag + "-follower";
  const std::string digest_path = base + "/" + tag + ".digest";
  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);

  net::Server leader(LeaderOptions(leader_dir));
  if (const Status started = leader.Start(); !started.ok()) {
    std::fprintf(stderr, "  leader start failed: %s\n",
                 started.ToString().c_str());
    return false;
  }
  bool pass = false;
  do {
    // Phase A -> checkpoint -> phase B: a joining follower needs the
    // snapshot (phase A predates the checkpoint horizon) *and* log
    // catch-up (phase B).
    if (const Status s = RunMutations(leader.port(), GenMutations(seed, 25));
        !s.ok()) {
      std::fprintf(stderr, "  phase A: %s\n", s.ToString().c_str());
      break;
    }
    if (const Status s = leader.CheckpointNow(); !s.ok()) {
      std::fprintf(stderr, "  checkpoint: %s\n", s.ToString().c_str());
      break;
    }
    if (const Status s =
            RunMutations(leader.port(), GenMutations(seed + 1000, 45));
        !s.ok()) {
      std::fprintf(stderr, "  phase B: %s\n", s.ToString().c_str());
      break;
    }
    const uint64_t target_lsn = leader.GetReplStatus().durable_lsn;
    const Result<std::string> leader_digest = leader.StoreDigest();
    if (!leader_digest.ok()) {
      std::fprintf(stderr, "  leader digest: %s\n",
                   leader_digest.status().ToString().c_str());
      break;
    }

    const int countdown = 1 + static_cast<int>(seed % kind.window);
    bool child_ok = false;
    const bool killed =
        ForkFollower(follower_dir, leader.port(), kind.hook_point, countdown,
                     target_lsn, digest_path, &child_ok);
    if (!child_ok) break;
    if (killed) {
      // Rejoin on the same data dir: recover the local WAL, resubscribe
      // from the last durable LSN, converge. This child runs no kill
      // hook, so it must exit cleanly (ForkFollower returns false).
      const bool rejoin_killed =
          ForkFollower(follower_dir, leader.port(), nullptr, 0, target_lsn,
                       digest_path, &child_ok);
      if (rejoin_killed || !child_ok) {
        std::fprintf(stderr, "  rejoin child failed\n");
        break;
      }
    }
    const Result<std::string> follower_digest = ReadFile(digest_path);
    if (!follower_digest.ok()) {
      std::fprintf(stderr, "  follower digest unreadable: %s\n",
                   follower_digest.status().ToString().c_str());
      break;
    }
    if (*follower_digest != *leader_digest) {
      std::fprintf(stderr, "  DIVERGED: leader=%s follower=%s\n",
                   leader_digest->c_str(), follower_digest->c_str());
      break;
    }
    pass = true;
  } while (false);
  (void)leader.Stop();
  return pass;
}

/// Leader restart: follower starts while the leader is *down* (connect
/// retries with backoff), the leader comes back on the same port and data
/// dir, streams the rest, and the follower must converge with every
/// acked LSN intact.
bool RunLeaderRestart(const std::string& base) {
  const std::string leader_dir = base + "/restart-leader";
  const std::string follower_dir = base + "/restart-follower";
  const std::string digest_path = base + "/restart.digest";
  const std::string target_path = base + "/restart.target";
  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);
  fs::remove(target_path);

  uint16_t port = 0;
  {
    net::Server leader(LeaderOptions(leader_dir));
    if (const Status started = leader.Start(); !started.ok()) {
      std::fprintf(stderr, "  leader start failed: %s\n",
                   started.ToString().c_str());
      return false;
    }
    port = leader.port();
    if (const Status s = RunMutations(port, GenMutations(7, 20)); !s.ok()) {
      std::fprintf(stderr, "  phase A: %s\n", s.ToString().c_str());
      (void)leader.Stop();
      return false;
    }
    if (const Status s = leader.CheckpointNow(); !s.ok()) {
      std::fprintf(stderr, "  checkpoint: %s\n", s.ToString().c_str());
      (void)leader.Stop();
      return false;
    }
    if (const Status stopped = leader.Stop(); !stopped.ok()) {
      std::fprintf(stderr, "  leader stop: %s\n", stopped.ToString().c_str());
      return false;
    }
  }

  // Leader is down. Start the follower now: its applier must retry with
  // backoff until the leader returns.
  const pid_t pid = ::fork();
  if (pid == 0) {
    RunFollowerChild(follower_dir, port, nullptr, 0, /*target_lsn=*/0,
                     digest_path, target_path);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  bool pass = false;
  {
    net::ServerOptions options = LeaderOptions(leader_dir);
    options.demo.clear();  // the data dir recovers; no reseeding
    options.port = port;
    net::Server leader(options);
    if (const Status started = leader.Start(); !started.ok()) {
      std::fprintf(stderr, "  leader restart failed: %s\n",
                   started.ToString().c_str());
      ::kill(pid, SIGKILL);
      int ignored = 0;
      ::waitpid(pid, &ignored, 0);
      return false;
    }
    do {
      if (const Status s = RunMutations(port, GenMutations(8, 30)); !s.ok()) {
        std::fprintf(stderr, "  phase B: %s\n", s.ToString().c_str());
        break;
      }
      const uint64_t target_lsn = leader.GetReplStatus().durable_lsn;
      const Result<std::string> leader_digest = leader.StoreDigest();
      if (!leader_digest.ok()) {
        std::fprintf(stderr, "  leader digest: %s\n",
                     leader_digest.status().ToString().c_str());
        break;
      }
      if (const Status s =
              WriteFileAtomic(target_path, std::to_string(target_lsn));
          !s.ok()) {
        std::fprintf(stderr, "  target write: %s\n", s.ToString().c_str());
        break;
      }
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 42) {
        std::fprintf(stderr, "  follower child failed (wstatus=%d)\n",
                     wstatus);
        break;
      }
      const Result<std::string> follower_digest = ReadFile(digest_path);
      if (!follower_digest.ok() || *follower_digest != *leader_digest) {
        std::fprintf(stderr, "  DIVERGED after leader restart\n");
        break;
      }
      pass = true;
    } while (false);
    (void)leader.Stop();
  }
  if (!pass) {
    ::kill(pid, SIGKILL);
    int ignored = 0;
    ::waitpid(pid, &ignored, 0);
  }
  return pass;
}

int RunHarness(uint64_t seeds, const std::string& only_kind,
               bool skip_restart) {
  const char* tmp = ::getenv("TMPDIR");
  const std::string base = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/xia_repl_harness_" + std::to_string(::getpid());
  fs::create_directories(base);
  int failures = 0;
  int runs = 0;
  for (const CrashKind& kind : kCrashKinds) {
    if (!only_kind.empty() && only_kind != kind.name) continue;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      ++runs;
      std::printf("[%s seed=%llu] ", kind.name,
                  static_cast<unsigned long long>(seed));
      std::fflush(stdout);
      if (RunOne(kind, seed, base)) {
        std::printf("ok\n");
      } else {
        std::printf("FAIL\n");
        ++failures;
      }
    }
  }
  if (only_kind.empty() && !skip_restart) {
    ++runs;
    std::printf("[leader-restart] ");
    std::fflush(stdout);
    if (RunLeaderRestart(base)) {
      std::printf("ok\n");
    } else {
      std::printf("FAIL\n");
      ++failures;
    }
  }
  if (failures == 0) fs::remove_all(base);
  std::printf("%d/%d runs passed\n", runs - failures, runs);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xia

int main(int argc, char** argv) {
  uint64_t seeds = 10;
  std::string only_kind;
  bool skip_restart = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--kind" && i + 1 < argc) {
      only_kind = argv[++i];
    } else if (arg == "--skip-restart") {
      skip_restart = true;
    } else {
      std::fprintf(stderr,
                   "usage: xia_repl_harness [--seeds N] [--kind NAME] "
                   "[--skip-restart]\n");
      return 2;
    }
  }
  return xia::RunHarness(seeds, only_kind, skip_restart);
}
