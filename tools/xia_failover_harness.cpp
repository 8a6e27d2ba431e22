// Three-node kill -9 failover harness.
//
// Every run forks a quorum-commit leader (--sync-replicas 1 semantics)
// and two follower children, drives a unique-symbol insert stream
// through the leader, which kills itself with kill -9 at a scheduled
// crash point:
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
// The partition scenario leaves the deposed leader RUNNING while a
// follower is promoted behind its back: writes to the stale leader must
// fail kUnavailable (its quorum can never form), epoch-stamped writes
// must fail kFenced on both sides of the split, a follower rejection
// must name the real leader, and after the stale leader rejoins, its
// never-acked suffix must be gone from every digest. Exit 0 iff every
// run passes.
//
// Usage: xia_failover_harness [--seeds N] [--kind NAME]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "util/atomic_file.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace xia {
namespace {

/// Where in the leader's commit/replication path the child kills itself.
const std::vector<harness::CrashKind> kCrashKinds = {
    {"mid-group-commit", "wal.append.mid_write", 20},
    {"mid-quorum-wait", "repl.quorum.before_wait", 30},
    {"mid-stream-send", "repl.stream.mid_send", 40},
    {"mid-checkpoint", "checkpoint.after_snapshot", 2},
    {"post-ack", "repl.quorum.after_ack", 30},
};

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

Status Insert(net::Client* client, const std::string& symbol,
              uint64_t expected_epoch = 0) {
  net::MutationRequest request;
  request.statement = harness::InsertStatement(symbol);
  request.expected_epoch = expected_epoch;
  return client->Mutate(request).status();
}

/// The node children of one run, by name. Each node's data dir is
/// <dir>/<name> and its control files sit next to it. Nodes still
/// running when the run ends are killed.
struct Cluster {
  std::string dir;
  std::map<std::string, pid_t> pids;
  std::map<std::string, uint16_t> ports;

  explicit Cluster(std::string run_dir) : dir(std::move(run_dir)) {}
  ~Cluster() {
    for (const auto& [name, pid] : pids) harness::KillAndReap(pid);
  }

  /// A node, following the leader on `leader_port` unless it is 0. Every
  /// node arms its kill hook only after Server::Start.
  harness::NodeSpec Spec(const std::string& name,
                         uint16_t leader_port = 0) const {
    harness::NodeSpec spec;
    spec.data_dir = dir + "/" + name;
    spec.control_dir = dir;
    spec.name = name;
    if (leader_port != 0) {
      spec.leader_host = "127.0.0.1";
      spec.leader_port = leader_port;
    }
    spec.arming = harness::HookArming::kAfterStart;
    return spec;
  }

  void Fork(const harness::NodeSpec& spec) {
    pids[spec.name] = harness::ForkNode(spec);
  }

  Status WaitPort(const std::string& name) {
    XIA_ASSIGN_OR_RETURN(ports[name],
                         harness::WaitPortFile(dir + "/" + name + ".port"));
    return Status::OK();
  }

  /// Boots leader n1 (demo-seeded, checkpointing periodically) and
  /// followers n2 and n3.
  Status Boot(const harness::CrashKind* kind, uint64_t seed,
              double leader_quorum_timeout_ms) {
    harness::NodeSpec n1 = Spec("n1");
    n1.seed_demo = true;
    n1.quorum_timeout_ms = leader_quorum_timeout_ms;
    n1.periodic_checkpoint = true;
    if (kind != nullptr) {
      n1.hook_point = kind->hook_point;
      n1.countdown = harness::Countdown(*kind, seed);
    }
    Fork(n1);
    XIA_RETURN_IF_ERROR(WaitPort("n1"));
    Fork(Spec("n2", ports["n1"]));
    Fork(Spec("n3", ports["n1"]));
    XIA_RETURN_IF_ERROR(WaitPort("n2"));
    return WaitPort("n3");
  }

  /// Publishes `target` to the followers, reaps them, then does the same
  /// for `leader`, which must keep streaming until they have exited. All
  /// store digests must be byte-equal.
  bool Converge(uint64_t target, const std::string& leader,
                const std::vector<std::string>& followers) {
    std::vector<std::string> names;
    std::vector<Result<std::string>> digests;
    const auto publish = [&](const std::string& name) {
      (void)WriteFileAtomic(dir + "/" + name + ".target",
                            std::to_string(target));
    };
    const auto reap = [&](const std::string& name) {
      names.push_back(name);
      digests.push_back(harness::ReapConverged(
          pids[name], dir + "/" + name + ".digest", name.c_str()));
      pids.erase(name);
    };
    for (const std::string& name : followers) publish(name);
    for (const std::string& name : followers) reap(name);
    publish(leader);
    reap(leader);
    bool same = true;
    for (const Result<std::string>& digest : digests) {
      same = same && digest.ok() && *digest == *digests.front();
    }
    if (!same) {
      std::fprintf(stderr, "  DIVERGED:");
      for (size_t i = 0; i < names.size(); ++i) {
        std::fprintf(stderr, " %s=%s", names[i].c_str(),
                     digests[i].ok()
                         ? digests[i]->c_str()
                         : digests[i].status().ToString().c_str());
      }
      std::fprintf(stderr, "\n");
    }
    return same;
  }
};

bool RunOne(const harness::CrashKind& kind, uint64_t seed,
            const std::string& dir, bool* killed) {
  Cluster cluster(dir);
  net::Client lead;
  if (!harness::Check("boot", cluster.Boot(&kind, seed, 8000)) ||
      !harness::Check("connect n1",
                      lead.Connect("127.0.0.1", cluster.ports["n1"])) ||
      !harness::Check("followers", WaitFollowersConnected(&lead, 2, 15.0))) {
    return false;
  }

  // Drive quorum-acked inserts until the scheduled kill fires. Every OK
  // reply is a quorum promise the failover must keep.
  std::vector<std::string> acked;
  int leader_wstatus = 0;
  for (int i = 0; i < 300 && !*killed; ++i) {
    const std::string symbol =
        "FOV" + std::to_string(seed) + "N" + std::to_string(i);
    const Status s = Insert(&lead, symbol);
    if (s.ok()) {
      acked.push_back(symbol);
      continue;
    }
    // A failed mutation must mean the leader is (about to be) dead; a
    // quorum timeout with two healthy followers is a real bug.
    if (!harness::WaitForDeath(cluster.pids["n1"], 5.0, &leader_wstatus)) {
      harness::Check("mutation failed but leader alive", s);
      return false;
    }
    *killed = true;
  }
  if (!*killed) {
    // The countdown never fired (short run for this point); a kill from
    // outside still exercises the same failover path.
    leader_wstatus = harness::KillAndReap(cluster.pids["n1"]);
  }
  cluster.pids.erase("n1");
  lead.Close();
  if (harness::FateOf(leader_wstatus) != harness::Fate::kKilled) {
    std::fprintf(stderr, "  leader died oddly (wstatus=%d)\n", leader_wstatus);
    return false;
  }

  // Promote the most-caught-up follower (max durable LSN: every
  // quorum-acked LSN is <= some follower's durable LSN, so the max
  // candidate holds them all).
  net::Client c2, c3;
  if (!harness::Check("connect n2",
                      c2.Connect("127.0.0.1", cluster.ports["n2"])) ||
      !harness::Check("connect n3",
                      c3.Connect("127.0.0.1", cluster.ports["n3"]))) {
    return false;
  }
  const Result<net::ReplStatusReply> rs2 = c2.ReplStatus();
  const Result<net::ReplStatusReply> rs3 = c3.ReplStatus();
  if (!harness::Check("repl status n2", rs2.status()) ||
      !harness::Check("repl status n3", rs3.status())) {
    return false;
  }
  const bool two_wins = rs2->durable_lsn >= rs3->durable_lsn;
  net::Client& cw = two_wins ? c2 : c3;
  net::Client& cl = two_wins ? c3 : c2;
  const std::string winner = two_wins ? "n2" : "n3";
  const std::string loser = two_wins ? "n3" : "n2";
  const uint16_t winner_port = cluster.ports[winner];
  const Result<net::PromoteReply> promoted = cw.Promote();
  if (!harness::Check("promote", promoted.status())) return false;
  if (promoted->epoch < 2 || promoted->barrier_lsn == 0) {
    std::fprintf(stderr, "  bad promote reply\n");
    return false;
  }
  if (!harness::Check("refollow",
                      cl.Follow("127.0.0.1", winner_port).status())) {
    return false;
  }

  // The new epoch must accept quorum writes of its own.
  for (int i = 0; i < 10; ++i) {
    const std::string symbol =
        "PST" + std::to_string(seed) + "N" + std::to_string(i);
    if (!harness::Check("post-failover write", Insert(&cw, symbol))) {
      return false;
    }
    acked.push_back(symbol);
  }

  // Zero acked-write loss: every promised mutation is on the new leader
  // exactly once.
  for (const std::string& symbol : acked) {
    const Result<uint64_t> count = QueryCount(&cw, symbol);
    if (!count.ok() || *count != 1) {
      std::fprintf(stderr, "  LOST acked mutation %s (count=%llu)\n",
                   symbol.c_str(),
                   count.ok() ? static_cast<unsigned long long>(*count) : 0ULL);
      return false;
    }
  }

  // Rejoin the deposed leader's data dir under the new epoch; its
  // unreplicated suffix truncates at the barrier (or full-resyncs).
  harness::NodeSpec rejoin = cluster.Spec("n1r", winner_port);
  rejoin.data_dir = dir + "/n1";
  cluster.Fork(rejoin);
  if (!harness::Check("rejoin", cluster.WaitPort("n1r"))) return false;
  const Result<net::ReplStatusReply> final_rs = cw.ReplStatus();
  if (!harness::Check("repl status", final_rs.status())) return false;
  cl.Close();
  cw.Close();
  return cluster.Converge(final_rs->durable_lsn, winner, {loser, "n1r"});
}

/// Partition scenario: the old leader keeps running while n2 is
/// promoted behind its back. Its writes must fence or time out — and
/// after it rejoins, they must not exist anywhere.
bool RunPartition(const std::string& dir) {
  Cluster cluster(dir);
  // Short quorum timeout on n1 so its doomed post-partition writes fail
  // fast instead of stalling the harness.
  if (!harness::Check("boot", cluster.Boot(nullptr, 0, 2500))) return false;
  net::Client c1, c2, c3;
  if (!harness::Check("connect n1",
                      c1.Connect("127.0.0.1", cluster.ports["n1"])) ||
      !harness::Check("connect n2",
                      c2.Connect("127.0.0.1", cluster.ports["n2"])) ||
      !harness::Check("connect n3",
                      c3.Connect("127.0.0.1", cluster.ports["n3"])) ||
      !harness::Check("followers", WaitFollowersConnected(&c1, 2, 15.0))) {
    return false;
  }
  for (int i = 0; i < 20; ++i) {
    if (!harness::Check("pre-partition write",
                        Insert(&c1, "PRE" + std::to_string(i)))) {
      return false;
    }
  }

  // "Partition" n1: promote n2 while n1 still believes it leads.
  const Result<net::PromoteReply> promoted = c2.Promote();
  if (!harness::Check("promote", promoted.status())) return false;
  if (promoted->epoch < 2) {
    std::fprintf(stderr, "  bad promote reply\n");
    return false;
  }
  if (!harness::Check("refollow n3",
                      c3.Follow("127.0.0.1", cluster.ports["n2"]).status())) {
    return false;
  }

  // Each rejected write must fail with exactly `want`.
  const auto rejected = [](const char* what, const Status& s,
                           StatusCode want) {
    if (s.code() == want) return true;
    std::fprintf(stderr, "  %s not rejected as expected: %s\n", what,
                 s.ok() ? "OK" : s.ToString().c_str());
    return false;
  };
  // Stale-leader writes: locally durable on n1 but never quorum-acked —
  // each must fail kUnavailable, not silently succeed.
  for (int i = 0; i < 3; ++i) {
    if (!rejected("stale write", Insert(&c1, "STALE" + std::to_string(i)),
                  StatusCode::kUnavailable)) {
      return false;
    }
  }
  // Epoch-stamped writes fence on both sides of the split (epoch 1 is the
  // pre-promotion epoch). A follower rejection must name the real leader
  // so clients can redirect (the xia_client --retry path).
  const std::string real_leader =
      "127.0.0.1:" + std::to_string(cluster.ports["n2"]);
  if (!rejected("new-epoch write on the stale leader",
                Insert(&c1, "FENCED0", promoted->epoch),
                StatusCode::kFenced) ||
      !rejected("old-epoch write on the new leader",
                Insert(&c2, "FENCED1", 1), StatusCode::kFenced) ||
      !rejected("write on a follower", Insert(&c3, "REDIR0"),
                StatusCode::kReadOnly)) {
    return false;
  }
  if (c3.leader_hint() != real_leader) {
    std::fprintf(stderr, "  follower hint wrong: got \"%s\" want %s\n",
                 c3.leader_hint().c_str(), real_leader.c_str());
    return false;
  }

  for (int i = 0; i < 10; ++i) {
    if (!harness::Check("post-partition write",
                        Insert(&c2, "PST" + std::to_string(i)))) {
      return false;
    }
  }

  // Heal: the deposed leader rejoins and must shed its stale suffix.
  if (!harness::Check("rejoin n1",
                      c1.Follow("127.0.0.1", cluster.ports["n2"]).status())) {
    return false;
  }
  for (int i = 0; i < 3; ++i) {
    const Result<uint64_t> count =
        QueryCount(&c2, "STALE" + std::to_string(i));
    if (!count.ok() || *count != 0) {
      std::fprintf(stderr, "  stale write MERGED into the new epoch\n");
      return false;
    }
  }

  const Result<net::ReplStatusReply> final_rs = c2.ReplStatus();
  if (!harness::Check("repl status", final_rs.status())) return false;
  c1.Close();
  c2.Close();
  c3.Close();
  return cluster.Converge(final_rs->durable_lsn, "n2", {"n1", "n3"});
}

}  // namespace
}  // namespace xia

int main(int argc, char** argv) {
  const std::optional<xia::harness::Args> args =
      xia::harness::ParseArgs(argc, argv, 10);
  if (!args) return 2;
  return xia::harness::Drive("xia_failover_harness", *args, xia::kCrashKinds,
                             xia::RunOne, {{"partition", xia::RunPartition}});
}
