#include "harness.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "tpox/tpox_data.h"
#include "util/atomic_file.h"
#include "util/stopwatch.h"

namespace xia::harness {

namespace fs = std::filesystem;

namespace {

/// A node child gives up (exit 5) if it has not converged by then.
constexpr double kChildLifeTimeoutSeconds = 120.0;
/// Reap kills a child that has not ended by then.
constexpr double kReapTimeoutSeconds = 90.0;
/// A periodically checkpointing leader checkpoints each time its durable
/// LSN has advanced this far, so a stream of a few hundred writes always
/// spans several checkpoints, however fast it runs.
constexpr uint64_t kCheckpointLsnStep = 50;

[[noreturn]] void NodeFailed(const NodeSpec& spec, const char* what,
                             const Status& status, int code) {
  std::fprintf(stderr, "  [%s] %s: %s\n", spec.name.c_str(), what,
               status.ToString().c_str());
  ::_exit(code);
}

[[noreturn]] void RunNodeChild(const NodeSpec& spec) {
  net::ServerOptions options;
  if (spec.seed_demo) {
    options = DemoLeaderOptions(spec.data_dir);
  } else {
    options.data_dir = spec.data_dir;
  }
  if (!spec.leader_host.empty()) {
    options.follow_host = spec.leader_host;
    options.follow_port = spec.leader_port;
    options.follower_id = spec.name;
  }
  options.repl_checkpoint_every = 16;
  options.sync_replicas = 1;
  options.quorum_timeout_ms = spec.quorum_timeout_ms;
  std::atomic<bool> armed{spec.arming == HookArming::kFromProcessStart};
  if (spec.hook_point != nullptr) {
    options.repl_test_hook = KillHook(spec.hook_point, spec.countdown, &armed);
  }
  net::Server server(options);
  if (const Status started = server.Start(); !started.ok()) {
    NodeFailed(spec, "start failed", started, 4);
  }
  if (const Status wrote =
          WriteFileAtomic(spec.File(".port"), std::to_string(server.port()));
      !wrote.ok()) {
    NodeFailed(spec, "port write failed", wrote, 4);
  }
  armed.store(true, std::memory_order_release);

  Stopwatch life;
  uint64_t target = 0;
  uint64_t checkpointed_lsn = server.GetReplStatus().durable_lsn;
  while (true) {
    if (life.ElapsedSeconds() > kChildLifeTimeoutSeconds) {
      const net::ReplStatus rs = server.GetReplStatus();
      std::fprintf(stderr,
                   "  [%s] timeout: target=%llu durable=%llu applied=%llu "
                   "connect_failures=%llu last_error=%s\n",
                   spec.name.c_str(), static_cast<unsigned long long>(target),
                   static_cast<unsigned long long>(rs.durable_lsn),
                   static_cast<unsigned long long>(rs.applier.applied_lsn),
                   static_cast<unsigned long long>(rs.applier.connect_failures),
                   rs.applier.last_error.c_str());
      ::_exit(5);
    }
    const net::ReplStatus rs = server.GetReplStatus();
    if (spec.periodic_checkpoint && !server.IsFollowerNow() &&
        rs.durable_lsn >= checkpointed_lsn + kCheckpointLsnStep) {
      (void)server.CheckpointNow();
      checkpointed_lsn = rs.durable_lsn;
    }
    if (server.IsFollowerNow() && !rs.applier.sticky_error.empty()) {
      std::fprintf(stderr, "  [%s] diverged: %s\n", spec.name.c_str(),
                   rs.applier.sticky_error.c_str());
      ::_exit(6);
    }
    if (target == 0) {
      const Result<std::string> text = ReadFile(spec.File(".target"));
      if (text.ok()) target = std::strtoull(text->c_str(), nullptr, 10);
    }
    if (target != 0) {
      const uint64_t progress =
          server.IsFollowerNow() ? rs.applier.applied_lsn : rs.durable_lsn;
      if (progress >= target) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Result<std::string> digest = server.StoreDigest();
  if (!digest.ok()) NodeFailed(spec, "digest failed", digest.status(), 7);
  if (const Status wrote = WriteFileAtomic(spec.File(".digest"), *digest);
      !wrote.ok()) {
    NodeFailed(spec, "digest write failed", wrote, 8);
  }
  (void)server.Stop();
  ::_exit(42);
}

/// A whole decimal number >= min.
bool ParseNumber(const char* text, uint64_t min, uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && *out >= min;
}

}  // namespace

int Countdown(const CrashKind& kind, uint64_t seed) {
  return 1 + static_cast<int>(seed % static_cast<uint64_t>(kind.window));
}

wal::WalTestHook KillHook(const char* point, int countdown,
                          const std::atomic<bool>* armed) {
  if (point == nullptr) return nullptr;
  auto remaining = std::make_shared<std::atomic<int>>(countdown);
  return [point, remaining, armed](const char* fired) {
    if (armed != nullptr && !armed->load(std::memory_order_acquire)) return;
    if (std::strcmp(fired, point) == 0 && remaining->fetch_sub(1) == 1) {
      ::kill(::getpid(), SIGKILL);
    }
  };
}

Fate FateOf(int wstatus) {
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
    return Fate::kKilled;
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 42) {
    return Fate::kConverged;
  }
  return Fate::kOther;
}

pid_t Fork(const std::function<void()>& body) {
  const pid_t pid = ::fork();
  if (pid < 0) std::perror("fork");
  if (pid == 0) {
    body();
    ::_exit(7);
  }
  return pid;
}

bool WaitForDeath(pid_t pid, double timeout_s, int* wstatus) {
  Stopwatch timer;
  while (timer.ElapsedSeconds() < timeout_s) {
    if (::waitpid(pid, wstatus, WNOHANG) == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

int KillAndReap(pid_t pid) {
  int wstatus = 0;
  if (pid <= 0) return wstatus;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

Fate Reap(pid_t pid, const char* who) {
  if (pid < 0) return Fate::kOther;
  int wstatus = 0;
  if (!WaitForDeath(pid, kReapTimeoutSeconds, &wstatus)) {
    KillAndReap(pid);
    std::fprintf(stderr, "  %s did not finish in %.0f s\n", who,
                 kReapTimeoutSeconds);
    return Fate::kOther;
  }
  const Fate fate = FateOf(wstatus);
  if (fate == Fate::kOther) {
    std::fprintf(stderr, "  %s died unexpectedly (wstatus=%d)\n", who,
                 wstatus);
  }
  return fate;
}

Result<std::string> ReapConverged(pid_t pid, const std::string& digest_path,
                                  const char* who) {
  if (Reap(pid, who) != Fate::kConverged) {
    return Status::Internal(std::string(who) + " did not converge");
  }
  return ReadFile(digest_path);
}

bool Check(const char* what, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "  %s: %s\n", what, status.ToString().c_str());
  }
  return status.ok();
}

Result<uint16_t> WaitPortFile(const std::string& path) {
  Stopwatch timer;
  while (timer.ElapsedSeconds() < 10.0) {
    const Result<std::string> text = ReadFile(path);
    if (text.ok()) {
      const uint64_t port = std::strtoull(text->c_str(), nullptr, 10);
      if (port >= 1 && port <= 65535) return static_cast<uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::DeadlineExceeded("no port file at " + path);
}

std::string InsertStatement(const std::string& symbol, uint64_t yield) {
  static const std::string pad(700, 'x');
  return "insert into SDOC <Security><Symbol>" + symbol + "</Symbol><Yield>" +
         std::to_string(yield) + "</Yield><Pad>" + pad + "</Pad></Security>";
}

net::ServerOptions DemoLeaderOptions(const std::string& data_dir) {
  net::ServerOptions options;
  options.data_dir = data_dir;
  options.demo = "tpox";
  options.demo_tpox_scale = tpox::TpoxScale{30, 40, 20, 42};
  return options;
}

pid_t ForkNode(const NodeSpec& spec) {
  return Fork([&spec] { RunNodeChild(spec); });
}

std::optional<Args> ParseArgs(int argc, char** argv, uint64_t default_seeds,
                              const std::vector<Flag>& flags) {
  Args args;
  args.seeds = default_seeds;
  bool ok = argc % 2 == 1;  // every option takes a value
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    const char* value = argv[i + 1];
    if (name == "--seeds") {
      ok = ParseNumber(value, 1, &args.seeds);
    } else if (name == "--kind") {
      args.kind = value;
    } else {
      const auto flag =
          std::find_if(flags.begin(), flags.end(),
                       [&name](const Flag& f) { return name == f.name; });
      uint64_t number = 0;
      ok = flag != flags.end() && ParseNumber(value, flag->min, &number) &&
           number <= INT_MAX;
      if (ok) *flag->value = static_cast<int>(number);
    }
  }
  if (ok) return args;
  std::string usage = "usage: " + std::string(argv[0]) +
                      " [--seeds N>=1] [--kind NAME]";
  for (const Flag& flag : flags) {
    usage += " [" + std::string(flag.name) + " N>=" +
             std::to_string(flag.min) + "]";
  }
  std::fprintf(stderr, "%s\n", usage.c_str());
  return std::nullopt;
}

int Drive(const char* program, const Args& args,
          const std::vector<CrashKind>& kinds, const RunKind& run_kind,
          const std::vector<Scenario>& scenarios) {
  const auto selected = [&args](const char* name) {
    return args.kind.empty() || args.kind == name;
  };
  std::string names;
  bool known = args.kind.empty();
  const auto list = [&](const char* name) {
    names += std::string(" ") + name;
    known = known || args.kind == name;
  };
  for (const CrashKind& kind : kinds) list(kind.name);
  for (const Scenario& scenario : scenarios) list(scenario.name);
  if (!known) {
    std::fprintf(stderr, "unknown kind: %s (valid:%s)\n", args.kind.c_str(),
                 names.c_str());
    return 2;
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string base = std::string(tmp != nullptr ? tmp : "/tmp") + "/" +
                           program + "_" + std::to_string(::getpid());
  int runs = 0;
  int failures = 0;
  // Prints "[label] ok|FAIL" around one run in a fresh `dir`, which is
  // removed again if the run passes.
  const auto run = [&](const std::string& label, const std::string& dir,
                       const std::function<bool(const std::string&)>& body) {
    std::printf("[%s] ", label.c_str());
    std::fflush(stdout);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const bool pass = body(dir);
    if (pass) fs::remove_all(dir);
    std::printf(pass ? "ok\n" : "FAIL\n");
    std::fflush(stdout);
    ++runs;
    if (!pass) ++failures;
    return pass;
  };
  for (const CrashKind& kind : kinds) {
    if (!selected(kind.name)) continue;
    uint64_t passed = 0;
    int kills = 0;
    for (uint64_t seed = 1; seed <= args.seeds; ++seed) {
      bool killed = false;
      if (run(std::string(kind.name) + " seed=" + std::to_string(seed),
              base + "/" + kind.name + "-" + std::to_string(seed),
              [&](const std::string& dir) {
                return run_kind(kind, seed, dir, &killed);
              })) {
        ++passed;
      }
      if (killed) ++kills;
    }
    std::printf("%-28s %llu/%llu seeds ok (%d killed mid-run)\n", kind.name,
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(args.seeds), kills);
  }
  for (const Scenario& scenario : scenarios) {
    if (selected(scenario.name)) {
      run(scenario.name, base + "/" + scenario.name, scenario.run);
    }
  }
  if (failures == 0) fs::remove_all(base);
  std::printf("%d/%d runs passed\n", runs - failures, runs);
  return failures == 0 ? 0 : 1;
}

}  // namespace xia::harness
