// Three-node kill -9 failover harness (ISSUE 9 headline test).
//
// Every run forks a quorum-commit leader (--sync-replicas 1 semantics)
// and two follower children, drives a unique-symbol insert stream
// through the leader, and SIGKILLs the leader at a scheduled crash
// point:
//
//   mid-group-commit   half a WAL record's bytes on disk
//   mid-quorum-wait    locally durable, quorum wait not yet entered
//   mid-stream-send    killed between replication frames
//   mid-checkpoint     leader checkpoint half done
//   post-ack           quorum satisfied, client reply never sent
//
// The parent then promotes the most-caught-up follower (highest durable
// LSN — the same rule xia_admin uses), re-points the other follower at
// it, writes ten more mutations, and rejoins the old leader's data dir
// as a follower of the new epoch (its unreplicated suffix truncates at
// the barrier, or it full-resyncs when its checkpoint passed it). The
// run passes iff every quorum-ACKED mutation is present on the new
// leader and all three store digests converge byte-for-byte.
//
// A final partition scenario leaves the deposed leader RUNNING while a
// follower is promoted behind its back: writes to the stale leader must
// fail kUnavailable (its quorum can never form), epoch-stamped writes
// must fail kFenced on both sides of the split, a follower rejection
// must name the real leader, and after the stale leader rejoins, its
// never-acked suffix must be gone from every digest. Exit 0 iff every
// run passes.
//
// Usage: xia_failover_harness [--seeds N] [--kind NAME]
//        (XIA_CHAOS_SEEDS=N overrides the default seed count)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "tpox/tpox_data.h"
#include "util/atomic_file.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace xia {
namespace {

namespace fs = std::filesystem;

constexpr double kChildLifeTimeoutSeconds = 120.0;
constexpr double kConvergeTimeoutSeconds = 90.0;

/// Where in the leader's commit/replication path the child kills itself.
struct CrashKind {
  const char* name;
  const char* hook_point;
  /// The countdown is seeded modulo this, so different seeds die at
  /// different depths into the mutation stream.
  int window;
};

constexpr CrashKind kCrashKinds[] = {
    {"mid-group-commit", "wal.append.mid_write", 20},
    {"mid-quorum-wait", "repl.quorum.before_wait", 30},
    {"mid-stream-send", "repl.stream.mid_send", 40},
    {"mid-checkpoint", "checkpoint.after_snapshot", 2},
    {"post-ack", "repl.quorum.after_ack", 30},
};

/// Inserts carry a ~700-byte pad so WAL records and replication frames
/// span several writes/reads and the mid-* kill windows actually open.
std::string InsertStatement(const std::string& symbol) {
  static const std::string pad(700, 'x');
  return "insert into SDOC <Security><Symbol>" + symbol +
         "</Symbol><Yield>5</Yield><Pad>" + pad + "</Pad></Security>";
}

/// One node of the cluster, run in a forked child.
struct NodeSpec {
  std::string data_dir;
  std::string control_dir;
  /// Control-file prefix: <control_dir>/<name>.{port,target,digest}.
  std::string name;
  /// First boot of the initial leader seeds the demo TPoX collections.
  bool seed_demo = false;
  /// Non-empty host = start as a follower of this endpoint.
  std::string leader_host;
  uint16_t leader_port = 0;
  /// SIGKILL self when hook_point has fired `countdown` times
  /// (nullptr = never crash).
  const char* hook_point = nullptr;
  int countdown = 0;
  double quorum_timeout_ms = 8000;
  /// Leader-role children checkpoint every ~200ms so the mid-checkpoint
  /// kill window opens during the stream.
  bool periodic_checkpoint = false;
};

/// Child body: run one cluster node until the parent publishes a target
/// LSN, converge to it (durable LSN as leader, applied LSN as
/// follower — the role can change at runtime via promote/follow), write
/// the store digest, exit 42. With a hook armed, SIGKILL self at the
/// scheduled point instead. Never returns.
[[noreturn]] void RunNodeChild(const NodeSpec& spec) {
  net::ServerOptions options;
  options.data_dir = spec.data_dir;
  if (spec.seed_demo) {
    options.demo = "tpox";
    options.demo_tpox_scale = tpox::TpoxScale{30, 40, 20, 42};
  }
  if (!spec.leader_host.empty()) {
    options.follow_host = spec.leader_host;
    options.follow_port = spec.leader_port;
    options.follower_id = spec.name;
  }
  options.repl_checkpoint_every = 16;
  options.sync_replicas = 1;
  options.quorum_timeout_ms = spec.quorum_timeout_ms;
  // Arm the kill hook only after startup: demo seeding, recovery, and
  // the initial checkpoint fire the same points and must not count.
  std::atomic<bool> armed{false};
  std::atomic<int> remaining{spec.countdown};
  if (spec.hook_point != nullptr) {
    options.repl_test_hook = [&armed, &remaining, &spec](const char* point) {
      if (!armed.load(std::memory_order_acquire)) return;
      if (std::strcmp(point, spec.hook_point) == 0 &&
          remaining.fetch_sub(1) == 1) {
        ::kill(::getpid(), SIGKILL);
      }
    };
  }
  net::Server server(options);
  if (const Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "  [%s] start failed: %s\n", spec.name.c_str(),
                 started.ToString().c_str());
    ::_exit(4);
  }
  const std::string prefix = spec.control_dir + "/" + spec.name;
  if (const Status wrote = WriteFileAtomic(
          prefix + ".port", std::to_string(server.port()));
      !wrote.ok()) {
    std::fprintf(stderr, "  [%s] port write failed: %s\n", spec.name.c_str(),
                 wrote.ToString().c_str());
    ::_exit(4);
  }
  armed.store(true, std::memory_order_release);

  Stopwatch life;
  uint64_t target = 0;
  int iter = 0;
  while (true) {
    if (life.ElapsedSeconds() > kChildLifeTimeoutSeconds) {
      const net::ReplStatus rs = server.GetReplStatus();
      std::fprintf(stderr,
                   "  [%s] timeout: target=%llu durable=%llu applied=%llu "
                   "last_error=%s\n",
                   spec.name.c_str(),
                   static_cast<unsigned long long>(target),
                   static_cast<unsigned long long>(rs.durable_lsn),
                   static_cast<unsigned long long>(rs.applier.applied_lsn),
                   rs.applier.last_error.c_str());
      ::_exit(5);
    }
    ++iter;
    if (spec.periodic_checkpoint && !server.IsFollowerNow() &&
        iter % 40 == 0) {
      (void)server.CheckpointNow();
    }
    const net::ReplStatus rs = server.GetReplStatus();
    if (server.IsFollowerNow() && !rs.applier.sticky_error.empty()) {
      std::fprintf(stderr, "  [%s] diverged: %s\n", spec.name.c_str(),
                   rs.applier.sticky_error.c_str());
      ::_exit(6);
    }
    if (target == 0) {
      const Result<std::string> text = ReadFile(prefix + ".target");
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
  if (!digest.ok()) {
    std::fprintf(stderr, "  [%s] digest failed: %s\n", spec.name.c_str(),
                 digest.status().ToString().c_str());
    ::_exit(7);
  }
  if (const Status wrote =
          WriteFileAtomic(prefix + ".digest", *digest);
      !wrote.ok()) {
    std::fprintf(stderr, "  [%s] digest write failed: %s\n",
                 spec.name.c_str(), wrote.ToString().c_str());
    ::_exit(8);
  }
  (void)server.Stop();
  ::_exit(42);
}

pid_t ForkNode(const NodeSpec& spec) {
  const pid_t pid = ::fork();
  if (pid == 0) RunNodeChild(spec);
  return pid;
}

Result<uint16_t> WaitPortFile(const std::string& path, double timeout_s) {
  Stopwatch timer;
  while (timer.ElapsedSeconds() < timeout_s) {
    const Result<std::string> text = ReadFile(path);
    if (text.ok()) {
      const uint64_t port = std::strtoull(text->c_str(), nullptr, 10);
      if (port >= 1 && port <= 65535) return static_cast<uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::DeadlineExceeded("no port file at " + path);
}

bool WaitForDeath(pid_t pid, double timeout_s, int* wstatus) {
  Stopwatch timer;
  while (timer.ElapsedSeconds() < timeout_s) {
    if (::waitpid(pid, wstatus, WNOHANG) == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

void KillAndReap(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int ignored = 0;
  ::waitpid(pid, &ignored, 0);
}

/// Waits for a clean converged exit (42) and reads back the digest.
Result<std::string> ReapConverged(pid_t pid, const std::string& digest_path,
                                  const char* who) {
  int wstatus = 0;
  if (!WaitForDeath(pid, kConvergeTimeoutSeconds, &wstatus)) {
    KillAndReap(pid);
    return Status::DeadlineExceeded(std::string(who) +
                                    " did not converge in time");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 42) {
    return Status::Internal(std::string(who) + " died unexpectedly (wstatus " +
                            std::to_string(wstatus) + ")");
  }
  return ReadFile(digest_path);
}

/// Polls the leader until `count` followers are connected.
Status WaitFollowersConnected(net::Client* leader, size_t count,
                              double timeout_s) {
  Stopwatch timer;
  while (timer.ElapsedSeconds() < timeout_s) {
    const Result<net::ReplStatusReply> rs = leader->ReplStatus();
    if (rs.ok()) {
      size_t connected = 0;
      for (const net::ReplStatusFollower& f : rs->followers) {
        if (f.connected) ++connected;
      }
      if (connected >= count) return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::DeadlineExceeded("followers never connected");
}

Result<uint64_t> QueryCount(net::Client* client, const std::string& symbol) {
  net::QueryRequest request;
  request.statement = "for $s in c('SDOC')/Security where $s/Symbol = \"" +
                      symbol + "\" return $s";
  XIA_ASSIGN_OR_RETURN(const net::ExecReply reply, client->Query(request));
  return reply.result_count;
}

struct Cluster {
  std::string ctl;
  pid_t pid1 = -1, pid2 = -1, pid3 = -1, pid_rejoin = -1;
  uint16_t port1 = 0, port2 = 0, port3 = 0;

  void KillAll() {
    KillAndReap(pid1);
    KillAndReap(pid2);
    KillAndReap(pid3);
    KillAndReap(pid_rejoin);
  }
};

/// Boots leader n1 (+demo) and followers n2/n3 in `base`/`tag`-* dirs.
/// On success all three ports are filled in.
Status BootCluster(const std::string& base, const std::string& tag,
                   const CrashKind* kind, uint64_t seed,
                   double leader_quorum_timeout_ms, Cluster* cluster) {
  cluster->ctl = base + "/" + tag + "-ctl";
  for (const char* node : {"n1", "n2", "n3"}) {
    fs::remove_all(base + "/" + tag + "-" + node);
  }
  fs::remove_all(cluster->ctl);
  fs::create_directories(cluster->ctl);

  NodeSpec n1;
  n1.data_dir = base + "/" + tag + "-n1";
  n1.control_dir = cluster->ctl;
  n1.name = "n1";
  n1.seed_demo = true;
  n1.quorum_timeout_ms = leader_quorum_timeout_ms;
  n1.periodic_checkpoint = true;
  if (kind != nullptr) {
    n1.hook_point = kind->hook_point;
    n1.countdown = 1 + static_cast<int>(seed % kind->window);
  }
  cluster->pid1 = ForkNode(n1);
  XIA_ASSIGN_OR_RETURN(cluster->port1,
                       WaitPortFile(cluster->ctl + "/n1.port", 10.0));

  for (const char* name : {"n2", "n3"}) {
    NodeSpec follower;
    follower.data_dir = base + "/" + tag + "-" + name;
    follower.control_dir = cluster->ctl;
    follower.name = name;
    follower.leader_host = "127.0.0.1";
    follower.leader_port = cluster->port1;
    (std::strcmp(name, "n2") == 0 ? cluster->pid2 : cluster->pid3) =
        ForkNode(follower);
  }
  XIA_ASSIGN_OR_RETURN(cluster->port2,
                       WaitPortFile(cluster->ctl + "/n2.port", 10.0));
  XIA_ASSIGN_OR_RETURN(cluster->port3,
                       WaitPortFile(cluster->ctl + "/n3.port", 10.0));
  return Status::OK();
}

bool RunOne(const CrashKind& kind, uint64_t seed, const std::string& base) {
  const std::string tag = std::string(kind.name) + "-" + std::to_string(seed);
  Cluster cluster;
  bool pass = false;
  do {
    if (const Status booted =
            BootCluster(base, tag, &kind, seed, 8000, &cluster);
        !booted.ok()) {
      std::fprintf(stderr, "  boot: %s\n", booted.ToString().c_str());
      break;
    }
    net::Client lead;
    if (const Status s = lead.Connect("127.0.0.1", cluster.port1); !s.ok()) {
      std::fprintf(stderr, "  connect n1: %s\n", s.ToString().c_str());
      break;
    }
    if (const Status s = WaitFollowersConnected(&lead, 2, 15.0); !s.ok()) {
      std::fprintf(stderr, "  %s\n", s.ToString().c_str());
      break;
    }

    // Drive quorum-acked inserts until the scheduled kill fires. Every
    // OK reply is a quorum promise the failover must keep.
    std::vector<std::string> acked;
    bool leader_died = false;
    int leader_wstatus = 0;
    bool harness_error = false;
    for (int i = 0; i < 300 && !leader_died; ++i) {
      const std::string symbol =
          "FOV" + std::to_string(seed) + "N" + std::to_string(i);
      net::MutationRequest request;
      request.statement = InsertStatement(symbol);
      const Result<net::ExecReply> reply = lead.Mutate(request);
      if (reply.ok()) {
        acked.push_back(symbol);
        continue;
      }
      // A failed mutation must mean the leader is (about to be) dead;
      // a quorum timeout with two healthy followers is a real bug.
      if (!WaitForDeath(cluster.pid1, 5.0, &leader_wstatus)) {
        std::fprintf(stderr, "  mutation failed but leader alive: %s\n",
                     reply.status().ToString().c_str());
        harness_error = true;
        break;
      }
      leader_died = true;
    }
    if (harness_error) break;
    if (!leader_died) {
      // The countdown never fired (short run for this point); a kill
      // from outside still exercises the same failover path.
      ::kill(cluster.pid1, SIGKILL);
      if (!WaitForDeath(cluster.pid1, 5.0, &leader_wstatus)) break;
    }
    cluster.pid1 = -1;  // reaped
    lead.Close();
    if (!WIFSIGNALED(leader_wstatus) ||
        WTERMSIG(leader_wstatus) != SIGKILL) {
      std::fprintf(stderr, "  leader died oddly (wstatus=%d)\n",
                   leader_wstatus);
      break;
    }

    // Promote the most-caught-up follower (max durable LSN: every
    // quorum-acked LSN is <= some follower's durable LSN, so the max
    // candidate holds them all).
    net::Client c2, c3;
    if (!c2.Connect("127.0.0.1", cluster.port2).ok() ||
        !c3.Connect("127.0.0.1", cluster.port3).ok()) {
      std::fprintf(stderr, "  cannot reach followers for promotion\n");
      break;
    }
    const Result<net::ReplStatusReply> rs2 = c2.ReplStatus();
    const Result<net::ReplStatusReply> rs3 = c3.ReplStatus();
    if (!rs2.ok() || !rs3.ok()) {
      std::fprintf(stderr, "  repl status failed during promotion\n");
      break;
    }
    const bool two_wins = rs2->durable_lsn >= rs3->durable_lsn;
    net::Client& cw = two_wins ? c2 : c3;
    net::Client& cl = two_wins ? c3 : c2;
    const uint16_t winner_port = two_wins ? cluster.port2 : cluster.port3;
    const Result<net::PromoteReply> promoted = cw.Promote();
    if (!promoted.ok()) {
      std::fprintf(stderr, "  promote: %s\n",
                   promoted.status().ToString().c_str());
      break;
    }
    if (promoted->epoch < 2 || promoted->barrier_lsn == 0) {
      std::fprintf(stderr, "  bad promote reply\n");
      break;
    }
    if (const Status s = cl.Follow("127.0.0.1", winner_port).status();
        !s.ok()) {
      std::fprintf(stderr, "  refollow: %s\n", s.ToString().c_str());
      break;
    }

    // The new epoch must accept quorum writes of its own.
    bool post_failed = false;
    for (int i = 0; i < 10; ++i) {
      const std::string symbol =
          "PST" + std::to_string(seed) + "N" + std::to_string(i);
      net::MutationRequest request;
      request.statement = InsertStatement(symbol);
      if (const Result<net::ExecReply> reply = cw.Mutate(request);
          !reply.ok()) {
        std::fprintf(stderr, "  post-failover write: %s\n",
                     reply.status().ToString().c_str());
        post_failed = true;
        break;
      }
      acked.push_back(symbol);
    }
    if (post_failed) break;

    // Zero acked-write loss: every promised mutation is on the new
    // leader exactly once.
    bool lost = false;
    for (const std::string& symbol : acked) {
      const Result<uint64_t> count = QueryCount(&cw, symbol);
      if (!count.ok() || *count != 1) {
        std::fprintf(stderr, "  LOST acked mutation %s (count=%llu)\n",
                     symbol.c_str(),
                     count.ok() ? static_cast<unsigned long long>(*count)
                                : 0ULL);
        lost = true;
        break;
      }
    }
    if (lost) break;

    // Rejoin the deposed leader's data dir under the new epoch; its
    // unreplicated suffix truncates at the barrier (or full-resyncs).
    NodeSpec rejoin;
    rejoin.data_dir = base + "/" + tag + "-n1";
    rejoin.control_dir = cluster.ctl;
    rejoin.name = "n1r";
    rejoin.leader_host = "127.0.0.1";
    rejoin.leader_port = winner_port;
    cluster.pid_rejoin = ForkNode(rejoin);
    if (!WaitPortFile(cluster.ctl + "/n1r.port", 10.0).ok()) {
      std::fprintf(stderr, "  rejoin never started\n");
      break;
    }

    const Result<net::ReplStatusReply> final_rs = cw.ReplStatus();
    if (!final_rs.ok()) break;
    const std::string target = std::to_string(final_rs->durable_lsn);
    const char* winner_name = two_wins ? "n2" : "n3";
    const char* loser_name = two_wins ? "n3" : "n2";
    // Followers first: the new leader must keep streaming until both
    // have converged, so its own target is published only after they
    // exit.
    (void)WriteFileAtomic(cluster.ctl + "/" + std::string(loser_name) +
                              ".target", target);
    (void)WriteFileAtomic(cluster.ctl + "/n1r.target", target);
    cl.Close();
    const Result<std::string> loser_digest = ReapConverged(
        two_wins ? cluster.pid3 : cluster.pid2,
        cluster.ctl + "/" + std::string(loser_name) + ".digest", "follower");
    const Result<std::string> rejoin_digest = ReapConverged(
        cluster.pid_rejoin, cluster.ctl + "/n1r.digest", "rejoined leader");
    (void)WriteFileAtomic(cluster.ctl + "/" + std::string(winner_name) +
                              ".target", target);
    cw.Close();
    const Result<std::string> winner_digest = ReapConverged(
        two_wins ? cluster.pid2 : cluster.pid3,
        cluster.ctl + "/" + std::string(winner_name) + ".digest",
        "new leader");
    cluster.pid2 = cluster.pid3 = cluster.pid_rejoin = -1;
    if (!winner_digest.ok() || !loser_digest.ok() || !rejoin_digest.ok()) {
      std::fprintf(stderr, "  convergence: %s / %s / %s\n",
                   winner_digest.status().ToString().c_str(),
                   loser_digest.status().ToString().c_str(),
                   rejoin_digest.status().ToString().c_str());
      break;
    }
    if (*winner_digest != *loser_digest ||
        *winner_digest != *rejoin_digest) {
      std::fprintf(stderr, "  DIVERGED: leader=%s follower=%s rejoin=%s\n",
                   winner_digest->c_str(), loser_digest->c_str(),
                   rejoin_digest->c_str());
      break;
    }
    pass = true;
  } while (false);
  cluster.KillAll();
  if (pass) {
    for (const char* suffix : {"-n1", "-n2", "-n3", "-ctl"}) {
      fs::remove_all(base + "/" + tag + suffix);
    }
  }
  return pass;
}

/// Partition scenario: the old leader keeps running while n2 is
/// promoted behind its back. Its writes must fence or time out — and
/// after it rejoins, they must not exist anywhere.
bool RunPartition(const std::string& base) {
  const std::string tag = "partition";
  Cluster cluster;
  bool pass = false;
  do {
    // Short quorum timeout on n1 so its doomed post-partition writes
    // fail fast instead of stalling the harness.
    if (const Status booted =
            BootCluster(base, tag, nullptr, 0, 2500, &cluster);
        !booted.ok()) {
      std::fprintf(stderr, "  boot: %s\n", booted.ToString().c_str());
      break;
    }
    net::Client c1, c2, c3;
    if (!c1.Connect("127.0.0.1", cluster.port1).ok() ||
        !c2.Connect("127.0.0.1", cluster.port2).ok() ||
        !c3.Connect("127.0.0.1", cluster.port3).ok()) {
      std::fprintf(stderr, "  connect failed\n");
      break;
    }
    if (const Status s = WaitFollowersConnected(&c1, 2, 15.0); !s.ok()) {
      std::fprintf(stderr, "  %s\n", s.ToString().c_str());
      break;
    }
    bool write_failed = false;
    for (int i = 0; i < 20; ++i) {
      net::MutationRequest request;
      request.statement = InsertStatement("PRE" + std::to_string(i));
      if (!c1.Mutate(request).ok()) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) {
      std::fprintf(stderr, "  pre-partition writes failed\n");
      break;
    }

    // "Partition" n1: promote n2 while n1 still believes it leads.
    const Result<net::PromoteReply> promoted = c2.Promote();
    if (!promoted.ok() || promoted->epoch < 2) {
      std::fprintf(stderr, "  promote: %s\n",
                   promoted.status().ToString().c_str());
      break;
    }
    if (const Status s =
            c3.Follow("127.0.0.1", cluster.port2).status();
        !s.ok()) {
      std::fprintf(stderr, "  refollow n3: %s\n", s.ToString().c_str());
      break;
    }

    // Stale-leader writes: locally durable on n1 but never
    // quorum-acked — each must fail kUnavailable, not silently succeed.
    bool stale_ok = true;
    for (int i = 0; i < 3; ++i) {
      net::MutationRequest request;
      request.statement = InsertStatement("STALE" + std::to_string(i));
      const Result<net::ExecReply> reply = c1.Mutate(request);
      if (reply.ok() ||
          reply.status().code() != StatusCode::kUnavailable) {
        std::fprintf(stderr, "  stale write not rejected: %s\n",
                     reply.ok() ? "OK" : reply.status().ToString().c_str());
        stale_ok = false;
        break;
      }
    }
    if (!stale_ok) break;

    // Epoch-stamped writes fence on both sides of the split.
    {
      net::MutationRequest request;
      request.statement = InsertStatement("FENCED0");
      request.expected_epoch = promoted->epoch;
      const Result<net::ExecReply> reply = c1.Mutate(request);
      if (reply.ok() || reply.status().code() != StatusCode::kFenced) {
        std::fprintf(stderr, "  stale leader did not fence epoch %llu\n",
                     static_cast<unsigned long long>(promoted->epoch));
        break;
      }
    }
    {
      net::MutationRequest request;
      request.statement = InsertStatement("FENCED1");
      request.expected_epoch = 1;  // the pre-promotion epoch
      const Result<net::ExecReply> reply = c2.Mutate(request);
      if (reply.ok() || reply.status().code() != StatusCode::kFenced) {
        std::fprintf(stderr, "  new leader did not fence old epoch\n");
        break;
      }
    }
    // A follower rejection must name the real leader so clients can
    // redirect (the xia_client --retry path).
    {
      net::MutationRequest request;
      request.statement = InsertStatement("REDIR0");
      const Result<net::ExecReply> reply = c3.Mutate(request);
      const std::string want =
          "127.0.0.1:" + std::to_string(cluster.port2);
      if (reply.ok() || reply.status().code() != StatusCode::kReadOnly ||
          c3.leader_hint() != want) {
        std::fprintf(stderr, "  follower hint wrong: got \"%s\" want %s\n",
                     c3.leader_hint().c_str(), want.c_str());
        break;
      }
    }

    for (int i = 0; i < 10; ++i) {
      net::MutationRequest request;
      request.statement = InsertStatement("PST" + std::to_string(i));
      if (!c2.Mutate(request).ok()) {
        write_failed = true;
        break;
      }
    }
    if (write_failed) {
      std::fprintf(stderr, "  post-partition writes failed\n");
      break;
    }

    // Heal: the deposed leader rejoins and must shed its stale suffix.
    if (const Status s =
            c1.Follow("127.0.0.1", cluster.port2).status();
        !s.ok()) {
      std::fprintf(stderr, "  rejoin n1: %s\n", s.ToString().c_str());
      break;
    }

    bool stale_visible = false;
    for (int i = 0; i < 3; ++i) {
      const Result<uint64_t> count =
          QueryCount(&c2, "STALE" + std::to_string(i));
      if (!count.ok() || *count != 0) {
        std::fprintf(stderr, "  stale write MERGED into the new epoch\n");
        stale_visible = true;
        break;
      }
    }
    if (stale_visible) break;

    const Result<net::ReplStatusReply> final_rs = c2.ReplStatus();
    if (!final_rs.ok()) break;
    const std::string target = std::to_string(final_rs->durable_lsn);
    // Followers (n1 rejoined, n3) converge first; the leader n2 keeps
    // streaming until they exit and only then gets its own target.
    (void)WriteFileAtomic(cluster.ctl + "/n1.target", target);
    (void)WriteFileAtomic(cluster.ctl + "/n3.target", target);
    c1.Close();
    c3.Close();
    const Result<std::string> d1 =
        ReapConverged(cluster.pid1, cluster.ctl + "/n1.digest", "n1");
    const Result<std::string> d3 =
        ReapConverged(cluster.pid3, cluster.ctl + "/n3.digest", "n3");
    (void)WriteFileAtomic(cluster.ctl + "/n2.target", target);
    c2.Close();
    const Result<std::string> d2 =
        ReapConverged(cluster.pid2, cluster.ctl + "/n2.digest", "n2");
    cluster.pid1 = cluster.pid2 = cluster.pid3 = -1;
    if (!d1.ok() || !d2.ok() || !d3.ok()) {
      std::fprintf(stderr, "  convergence: %s / %s / %s\n",
                   d1.status().ToString().c_str(),
                   d2.status().ToString().c_str(),
                   d3.status().ToString().c_str());
      break;
    }
    if (*d1 != *d2 || *d1 != *d3) {
      std::fprintf(stderr, "  DIVERGED after heal: %s / %s / %s\n",
                   d1->c_str(), d2->c_str(), d3->c_str());
      break;
    }
    pass = true;
  } while (false);
  cluster.KillAll();
  if (pass) {
    for (const char* suffix : {"-n1", "-n2", "-n3", "-ctl"}) {
      fs::remove_all(base + "/" + tag + suffix);
    }
  }
  return pass;
}

int RunHarness(uint64_t seeds, const std::string& only_kind) {
  const char* tmp = ::getenv("TMPDIR");
  const std::string base = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/xia_failover_harness_" +
                           std::to_string(::getpid());
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
  if (only_kind.empty() || only_kind == "partition") {
    ++runs;
    std::printf("[partition] ");
    std::fflush(stdout);
    if (RunPartition(base)) {
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
  if (const char* env = ::getenv("XIA_CHAOS_SEEDS"); env != nullptr) {
    const uint64_t v = std::strtoull(env, nullptr, 10);
    if (v >= 1) seeds = v;
  }
  std::string only_kind;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--kind" && i + 1 < argc) {
      only_kind = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: xia_failover_harness [--seeds N] [--kind NAME]\n"
                   "  kinds: mid-group-commit mid-quorum-wait "
                   "mid-stream-send mid-checkpoint post-ack partition\n"
                   "  XIA_CHAOS_SEEDS=N overrides the default seed count\n");
      return 2;
    }
  }
  return xia::RunHarness(seeds, only_kind);
}
