// Fault matrix: arm every registered injection point in turn at p=1 and
// drive the full pipeline (build db -> workload io round-trip -> snapshot
// round-trip -> advise -> materialize -> pooled index build -> execute ->
// WAL round-trip). Each armed point must produce a clean, attributable
// Status — no crash, no partially mutated store, counters consistent.
// Also covers the online advisor's retry and circuit-breaker behaviour
// under kOnlineAdvise faults.

#include <gtest/gtest.h>

#include <chrono>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>

#include "advisor/advisor.h"
#include "engine/executor.h"
#include "engine/query_parser.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "scratch_dir.h"
#include "storage/catalog.h"
#include "storage/online_build.h"
#include "storage/snapshot.h"
#include "xpath/parser.h"
#include "tpox/tpox_data.h"
#include "util/thread_pool.h"
#include "wal/manager.h"
#include "workload/capture.h"
#include "workload/online_advisor.h"
#include "workload/workload_io.h"

namespace xia::fault {
namespace {

engine::Workload MakeWorkload() {
  engine::Workload w;
  for (const char* text :
       {"for $sec in SECURITY('SDOC')/Security "
        "where $sec/Symbol = \"SYM000003\" return $sec",
        "for $sec in SECURITY('SDOC')/Security[Yield > 4.5] "
        "where $sec/SecInfo/*/Sector = \"Energy\" "
        "return <Security>{$sec/Name}</Security>"}) {
    auto stmt = engine::ParseStatement(text);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    w.push_back(std::move(*stmt));
  }
  return w;
}

Status BuildSmallDatabase(storage::DocumentStore* store,
                          storage::StatisticsCatalog* stats) {
  tpox::TpoxScale scale;
  scale.security_docs = 30;
  scale.order_docs = 30;
  scale.custacc_docs = 10;
  return tpox::BuildTpoxDatabase(scale, store, stats);
}

// The end-to-end pipeline every fault point sits on. Returns the first
// failure; with nothing armed it must succeed.
Status RunPipeline() {
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  XIA_RETURN_IF_ERROR(BuildSmallDatabase(&store, &stats));

  // Workload persistence round-trip (kWorkloadWrite / kWorkloadRead).
  const engine::Workload workload = MakeWorkload();
  XIA_ASSIGN_OR_RETURN(std::string text,
                       workload::SerializeWorkload(workload));
  XIA_ASSIGN_OR_RETURN(engine::Workload loaded,
                       workload::DeserializeWorkload(text));

  // Snapshot round-trip (kSnapshotWrite / kSnapshotRead).
  std::stringstream buffer;
  XIA_RETURN_IF_ERROR(storage::SaveSnapshot(store, buffer));
  storage::DocumentStore restored;
  XIA_RETURN_IF_ERROR(storage::LoadSnapshot(buffer, &restored));
  storage::StatisticsCatalog restored_stats;
  for (const std::string& name : restored.CollectionNames()) {
    XIA_ASSIGN_OR_RETURN(storage::Collection * coll,
                         restored.GetCollection(name));
    restored_stats.RunStats(*coll);
  }

  // Advise (kOptimizerPlan / kAdvisorEnumerate / kAdvisorBenefit /
  // kAdvisorSearch) and materialize (kIndexBuild / kBtreeAlloc).
  advisor::IndexAdvisor advisor(&restored, &restored_stats);
  advisor::AdvisorOptions options;
  options.disk_budget_bytes = 1e6;
  XIA_ASSIGN_OR_RETURN(advisor::Recommendation rec,
                       advisor.Recommend(loaded, options));
  storage::Catalog catalog(&restored, &restored_stats);
  XIA_RETURN_IF_ERROR(advisor.Materialize(rec, &catalog));

  // A pooled index build (kPoolSubmit) over more than one 256-document
  // extraction chunk, so the pool dispatches instead of running inline.
  // An armed submit fault must fail the build and register no index.
  XIA_ASSIGN_OR_RETURN(storage::Collection * pooled,
                       restored.CreateCollection("POOLED"));
  for (int i = 0; i < 300; ++i) {
    xml::Document doc;
    doc.AddElement(doc.AddRoot("p"), "v", std::to_string(i));
    pooled->Add(std::move(doc));
  }
  XIA_ASSIGN_OR_RETURN(xpath::Path pooled_path, xpath::ParsePattern("/p/v"));
  util::ThreadPool pool(2);
  const Result<const storage::IndexDef*> pooled_index = catalog.CreateIndex(
      "pooled_v", "POOLED",
      xpath::IndexPattern{pooled_path, xpath::ValueType::kString}, &pool);
  if (!pooled_index.ok()) {
    if (catalog.Get("pooled_v").ok()) {
      return Status::Internal("failed pooled build registered its index");
    }
    return pooled_index.status();
  }

  // Execute over the materialized configuration (kExecutorScan /
  // kIndexLookup via the index probe).
  optimizer::Optimizer optimizer(&restored, &catalog, &restored_stats);
  engine::Executor executor(&restored, &catalog);
  for (const auto& stmt : loaded) {
    XIA_ASSIGN_OR_RETURN(optimizer::Plan plan, optimizer.Optimize(stmt));
    XIA_RETURN_IF_ERROR(executor.Execute(stmt, plan).status());
  }

  // Durability round-trip (kWalAppend / kWalFsync on the write side,
  // kWalReplay on the reopen).
  const std::string wal_dir = testutil::ScratchDir("matrix_wal");
  {
    wal::WalManager manager(wal_dir);
    storage::DocumentStore db;
    storage::StatisticsCatalog db_stats;
    storage::Catalog db_catalog(&db, &db_stats);
    XIA_RETURN_IF_ERROR(manager.Open(&db, &db_catalog, &db_stats).status());
    XIA_RETURN_IF_ERROR(manager.LogCreateCollection("WALC"));
    XIA_ASSIGN_OR_RETURN(
        engine::Statement ins,
        engine::ParseStatement("insert into WALC <w><v>1</v></w>"));
    XIA_RETURN_IF_ERROR(manager.OnCommit(ins));
    XIA_RETURN_IF_ERROR(manager.Close());
  }
  {
    wal::WalManager manager(wal_dir);
    storage::DocumentStore db;
    storage::StatisticsCatalog db_stats;
    storage::Catalog db_catalog(&db, &db_stats);
    XIA_RETURN_IF_ERROR(manager.Open(&db, &db_catalog, &db_stats).status());
  }
  return Status::OK();
}

TEST(FaultMatrixTest, PipelineSucceedsWithNothingArmed) {
  ScopedFaultDisarm cleanup;
  const Status status = RunPipeline();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(FaultMatrixTest, EveryArmedPointFailsCleanly) {
  // kOnlineAdvise sits on the online advisor's pass loop, not on this
  // pipeline; it has its own tests below. kIndexBuildSwap sits on the
  // online index build's swap section (Materialize builds offline), and
  // FailedOnlineSwapLeavesCatalogUntouched below drives it at p=1. The
  // net.* and repl.* points sit on the server/client/replication socket
  // paths, which this pipeline never crosses — the NetPoints/ReplPoints
  // loopback matrices below drive those at p=1, so every registered
  // point is exercised somewhere in this file.
  for (const char* point_name : kAllPoints) {
    const std::string name(point_name);
    if (name == points::kOnlineAdvise ||
        name == points::kIndexBuildSwap ||
        name.rfind("xia.fault.net.", 0) == 0 ||
        name.rfind("xia.fault.repl.", 0) == 0) {
      continue;
    }
    SCOPED_TRACE(point_name);
    ScopedFaultDisarm cleanup;
    FaultRegistry::Global().Arm(point_name, FaultSpec::Probability(1));
    obs::Counter* fired_total =
        obs::MetricsRegistry::Global().GetCounter("xia.fault.fired");
    const uint64_t fired_before = fired_total->value();

    const Status status = RunPipeline();

    // The pipeline crosses every point, so arming any of them must fail
    // the run — with the injected, attributable status.
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("fault injected"), std::string::npos)
        << status;
    EXPECT_NE(status.message().find(point_name), std::string::npos)
        << status;

    // Counter consistency: the point recorded the injection, both in its
    // own snapshot and in the process-wide metric.
    const FaultPointStatus st =
        FaultRegistry::Global().GetPoint(point_name)->Snapshot();
    EXPECT_GE(st.fired, 1u);
    EXPECT_GE(st.hits, st.fired);
    EXPECT_GE(fired_total->value(), fired_before + st.fired);
  }
}

TEST(FaultMatrixTest, FailedSnapshotLoadLeavesStoreEmpty) {
  ScopedFaultDisarm cleanup;
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  ASSERT_TRUE(BuildSmallDatabase(&store, &stats).ok());
  std::stringstream buffer;
  ASSERT_TRUE(storage::SaveSnapshot(store, buffer).ok());

  FaultRegistry::Global().Arm(points::kSnapshotRead,
                              FaultSpec::Probability(1));
  storage::DocumentStore restored;
  const Status status = storage::LoadSnapshot(buffer, &restored);
  EXPECT_FALSE(status.ok());
  // Stage-and-swap: the failed load must not touch the target store.
  EXPECT_TRUE(restored.CollectionNames().empty());
}

TEST(FaultMatrixTest, FailedOnlineSwapLeavesCatalogUntouched) {
  ScopedFaultDisarm cleanup;
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  ASSERT_TRUE(BuildSmallDatabase(&store, &stats).ok());
  storage::Catalog catalog(&store, &stats);
  std::shared_mutex db_mu;

  FaultRegistry::Global().Arm(points::kIndexBuildSwap,
                              FaultSpec::Probability(1));
  auto pattern = xpath::ParsePattern("/Security/Symbol");
  ASSERT_TRUE(pattern.ok()) << pattern.status();
  xpath::IndexPattern ip;
  ip.path = *pattern;
  ip.type = xpath::ValueType::kString;
  bool committed = false;
  const auto built = storage::BuildIndexOnline(
      &catalog, &db_mu, "idx_swap_fault", "SDOC", ip, {},
      [&] {
        committed = true;
        return Status::OK();
      });

  // The swap fails with the injected, attributable status; the commit
  // hook (the WAL write in a real server) never ran, the catalog holds
  // no trace of the index, and the side log was cleanly discarded.
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
  EXPECT_NE(built.status().message().find("fault injected"),
            std::string::npos)
      << built.status();
  EXPECT_NE(built.status().message().find(points::kIndexBuildSwap),
            std::string::npos)
      << built.status();
  EXPECT_FALSE(committed);
  EXPECT_TRUE(catalog.IndexesFor("SDOC").empty());
  EXPECT_FALSE(catalog.Get("idx_swap_fault").ok());
  EXPECT_EQ(catalog.attached_side_logs(), 0u);

  // Disarmed, the identical build succeeds — nothing stale blocks it.
  FaultRegistry::Global().Disarm(points::kIndexBuildSwap);
  const auto retry = storage::BuildIndexOnline(&catalog, &db_mu,
                                               "idx_swap_fault", "SDOC", ip);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_GT((*retry)->physical->entry_count(), 0u);
  EXPECT_EQ(catalog.attached_side_logs(), 0u);
}

// ---------------------------------------------------------------------
// Loopback matrix over the socket and replication fault points. The
// pipeline above never opens a socket; these drive every net.* / repl.*
// point at p=1 against live servers and require a clean attributable
// failure, zero partial mutation, and full recovery after disarm.
// ---------------------------------------------------------------------

net::ServerOptions TinyServerOptions(const std::string& suffix) {
  net::ServerOptions options;
  options.demo = "tpox";
  options.demo_tpox_scale = tpox::TpoxScale{20, 20, 10, 42};
  options.data_dir = testutil::ScratchDir("loopback_" + suffix);
  return options;
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

bool WaitForFired(const char* point, uint64_t at_least,
                  double timeout_s = 30.0) {
  return WaitFor(
      [&] {
        return FaultRegistry::Global().GetPoint(point)->Snapshot().fired >=
               at_least;
      },
      timeout_s);
}

uint64_t SdocCount(net::Client* client, const std::string& symbol) {
  net::QueryRequest request;
  request.statement =
      "for $s in c('SDOC')/Security where $s/Symbol = \"" + symbol +
      "\" return $s";
  const auto reply = client->Query(request);
  EXPECT_TRUE(reply.ok()) << reply.status();
  return reply.ok() ? reply->result_count : ~0ull;
}

TEST(FaultMatrixTest, NetPointsFailCleanlyOverLoopback) {
  ScopedFaultDisarm cleanup;
  net::Server server(TinyServerOptions("net"));
  ASSERT_TRUE(server.Start().ok());

  // kNetAccept at p=1: the TCP handshake may complete in the backlog, but
  // the server-side accept fails before a session spawns, so the
  // connection only ever yields EOF/reset — never a reply — and the
  // accept loop itself survives.
  {
    FaultRegistry::Global().Arm(points::kNetAccept, FaultSpec::Probability(1));
    auto socket = net::ConnectTcp(server.host(), server.port(), 5.0);
    if (socket.ok()) {
      (void)socket->SendAll(net::EncodeFrame(net::MsgType::kPing, 1, "x"));
      const auto readable = socket->WaitReadable(1.0);
      if (readable.ok() && *readable) {
        char buf[64];
        const auto n = socket->Recv(buf, sizeof(buf));
        EXPECT_TRUE(!n.ok() || *n == 0) << "got a reply through a faulted "
                                           "accept";
      }
      socket->Close();
    }
    EXPECT_TRUE(WaitForFired(points::kNetAccept, 1));
    FaultRegistry::Global().DisarmAll();
  }

  // kNetRead at p=1: a mutation request dies on the first Recv (either
  // side of the wire — the point is global), so it must never execute.
  // Connect AFTER arming: a session already parked inside Recv passed
  // the injection check before the arm and would read the request.
  {
    FaultRegistry::Global().Arm(points::kNetRead, FaultSpec::Probability(1));
    const uint64_t accepted_before = server.GetStats().connections_total;
    net::Client client;
    ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
    net::MutationRequest mutation;
    mutation.statement =
        "insert into SDOC <Security><Symbol>FAULTED</Symbol></Security>";
    const auto reply = client.Mutate(mutation);
    ASSERT_FALSE(reply.ok());
    EXPECT_TRUE(reply.status().code() == StatusCode::kInternal ||
                reply.status().code() == StatusCode::kUnavailable)
        << reply.status();
    if (reply.status().code() == StatusCode::kInternal) {
      EXPECT_NE(reply.status().message().find(points::kNetRead),
                std::string::npos)
          << reply.status();
    }
    // Two fires: the client's own Recv (which surfaced the error above)
    // and the server session's. Disarming before the server side has
    // actually hit the point would let it read — and apply — the
    // mutation after all. The point is process-wide, so the fire count
    // alone does not prove whose Recv hit it: also wait until the session
    // was accepted and has ended, which only its own faulted Recv does.
    EXPECT_TRUE(WaitForFired(points::kNetRead, 2));
    EXPECT_TRUE(WaitFor([&] {
      const net::ServerStats stats = server.GetStats();
      return stats.connections_total > accepted_before &&
             stats.open_sessions == 0;
    }));
    FaultRegistry::Global().DisarmAll();
  }

  // kNetWrite at p=1: the request dies on the first SendAll with a clean
  // attributable status.
  {
    net::Client client;
    ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
    FaultRegistry::Global().Arm(points::kNetWrite, FaultSpec::Probability(1));
    const auto pong = client.Ping("boom");
    ASSERT_FALSE(pong.ok());
    EXPECT_TRUE(pong.status().code() == StatusCode::kInternal ||
                pong.status().code() == StatusCode::kUnavailable)
        << pong.status();
    if (pong.status().code() == StatusCode::kInternal) {
      EXPECT_NE(pong.status().message().find(points::kNetWrite),
                std::string::npos)
          << pong.status();
    }
    EXPECT_GE(FaultRegistry::Global().GetPoint(points::kNetWrite)->Snapshot()
                  .fired,
              1u);
    FaultRegistry::Global().DisarmAll();
  }

  // Recovery: with everything disarmed a fresh client works, and the
  // mutation that was cut off under kNetRead never landed.
  net::Client client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  const auto pong = client.Ping("after");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(SdocCount(&client, "FAULTED"), 0u);

  server.Stop();
}

// Streaming-replication points: with the point armed at p=1 the follower
// must never (even partially) apply the blocked records; once disarmed it
// must converge to the leader's exact digest.
void RunReplPointScenario(const char* point) {
  SCOPED_TRACE(point);
  ScopedFaultDisarm cleanup;
  net::Server leader(TinyServerOptions(std::string("repl_leader_") + point));
  ASSERT_TRUE(leader.Start().ok());
  net::ServerOptions follower_options;
  follower_options.data_dir =
      TinyServerOptions(std::string("repl_follower_") + point).data_dir;
  follower_options.follow_host = "127.0.0.1";
  follower_options.follow_port = leader.port();
  net::Server follower(follower_options);
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >=
           leader.GetReplStatus().durable_lsn;
  }));

  FaultRegistry::Global().Arm(point, FaultSpec::Probability(1));
  {
    net::Client writer;
    ASSERT_TRUE(writer.Connect(leader.host(), leader.port()).ok());
    net::MutationRequest mutation;
    mutation.statement =
        "insert into SDOC <Security><Symbol>REPLFAULT</Symbol></Security>";
    const auto reply = writer.Mutate(mutation);
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  const uint64_t target = leader.GetReplStatus().durable_lsn;

  // The stream hits the armed point, and the new record never applies —
  // not even partially — while it is armed.
  ASSERT_TRUE(WaitForFired(point, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto armed_stats = follower.GetReplStatus().applier;
  EXPECT_LT(armed_stats.applied_lsn, target);
  EXPECT_TRUE(armed_stats.sticky_error.empty()) << armed_stats.sticky_error;

  // Disarm: the resubscribe loop recovers without a restart and the two
  // stores converge byte-for-byte.
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >= target;
  })) << follower.GetReplStatus().applier.last_error;
  auto leader_digest = leader.StoreDigest();
  auto follower_digest = follower.StoreDigest();
  ASSERT_TRUE(leader_digest.ok()) << leader_digest.status();
  ASSERT_TRUE(follower_digest.ok()) << follower_digest.status();
  EXPECT_EQ(*leader_digest, *follower_digest);

  follower.Stop();
  leader.Stop();
}

TEST(FaultMatrixTest, ReplSendPointFailsCleanlyOverLoopback) {
  RunReplPointScenario(points::kReplSend);
}

TEST(FaultMatrixTest, ReplRecvPointFailsCleanlyOverLoopback) {
  RunReplPointScenario(points::kReplRecv);
}

TEST(FaultMatrixTest, ReplApplyPointFailsCleanlyOverLoopback) {
  RunReplPointScenario(points::kReplApply);
}

TEST(FaultMatrixTest, ReplSnapshotXferPointBlocksJoinUntilDisarmed) {
  // The snapshot-transfer point gates a fresh follower's join: while
  // armed nothing is ever installed; after disarm the join completes.
  ScopedFaultDisarm cleanup;
  net::Server leader(TinyServerOptions("snapxfer_leader"));
  ASSERT_TRUE(leader.Start().ok());
  ASSERT_TRUE(leader.CheckpointNow().ok());

  FaultRegistry::Global().Arm(points::kReplSnapshotXfer,
                              FaultSpec::Probability(1));
  net::ServerOptions follower_options;
  follower_options.data_dir = TinyServerOptions("snapxfer_follower").data_dir;
  follower_options.follow_host = "127.0.0.1";
  follower_options.follow_port = leader.port();
  net::Server follower(follower_options);
  ASSERT_TRUE(follower.Start().ok());

  ASSERT_TRUE(WaitForFired(points::kReplSnapshotXfer, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto armed_stats = follower.GetReplStatus().applier;
  EXPECT_EQ(armed_stats.snapshots_installed, 0u);
  EXPECT_EQ(armed_stats.records_applied, 0u);
  EXPECT_TRUE(armed_stats.sticky_error.empty()) << armed_stats.sticky_error;

  FaultRegistry::Global().DisarmAll();
  const uint64_t target = leader.GetReplStatus().durable_lsn;
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >= target;
  })) << follower.GetReplStatus().applier.last_error;
  EXPECT_GE(follower.GetReplStatus().applier.snapshots_installed, 1u);
  auto leader_digest = leader.StoreDigest();
  auto follower_digest = follower.StoreDigest();
  ASSERT_TRUE(leader_digest.ok()) << leader_digest.status();
  ASSERT_TRUE(follower_digest.ok()) << follower_digest.status();
  EXPECT_EQ(*leader_digest, *follower_digest);

  follower.Stop();
  leader.Stop();
}

TEST(FaultMatrixTest, ReplQuorumWaitPointFailsAttributablyAndRecovers) {
  // kReplQuorumWait sits between the local commit and the quorum wait:
  // armed at p=1 the mutation fails with the injected status even
  // though a follower is caught up — and because the commit already
  // happened, the record is durable locally (same contract as a quorum
  // timeout: loud failure, no silent downgrade, no rollback).
  ScopedFaultDisarm cleanup;
  net::ServerOptions options = TinyServerOptions("quorum_leader");
  options.sync_replicas = 1;
  options.quorum_timeout_ms = 8000;
  net::Server leader(options);
  ASSERT_TRUE(leader.Start().ok());
  net::ServerOptions follower_options;
  follower_options.data_dir = TinyServerOptions("quorum_follower").data_dir;
  follower_options.follow_host = "127.0.0.1";
  follower_options.follow_port = leader.port();
  net::Server follower(follower_options);
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    const auto repl = leader.GetReplStatus();
    return !repl.followers.empty() &&
           repl.followers[0].acked_lsn >= repl.durable_lsn;
  }));

  FaultRegistry::Global().Arm(points::kReplQuorumWait,
                              FaultSpec::Probability(1));
  net::Client client;
  ASSERT_TRUE(client.Connect(leader.host(), leader.port()).ok());
  net::MutationRequest mutation;
  mutation.statement =
      "insert into SDOC <Security><Symbol>QWFAULT</Symbol></Security>";
  const auto reply = client.Mutate(mutation);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal) << reply.status();
  EXPECT_NE(reply.status().message().find(points::kReplQuorumWait),
            std::string::npos)
      << reply.status();
  // Committed locally before the injected point: the record is durable.
  EXPECT_EQ(SdocCount(&client, "QWFAULT"), 1u);

  // Disarm: the server needs no restart, quorum commits work again, and
  // the follower converges to the leader's exact digest.
  FaultRegistry::Global().DisarmAll();
  mutation.statement =
      "insert into SDOC <Security><Symbol>QWOK</Symbol></Security>";
  const auto recovered = client.Mutate(mutation);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const uint64_t target = leader.GetReplStatus().durable_lsn;
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >= target;
  }));
  auto leader_digest = leader.StoreDigest();
  auto follower_digest = follower.StoreDigest();
  ASSERT_TRUE(leader_digest.ok()) << leader_digest.status();
  ASSERT_TRUE(follower_digest.ok()) << follower_digest.status();
  EXPECT_EQ(*leader_digest, *follower_digest);

  follower.Stop();
  leader.Stop();
}

TEST(FaultMatrixTest, ReplPromotePointFailsCleanlyAndNodeStaysFollower) {
  // kReplPromote at p=1: the promotion fails attributably BEFORE any
  // state changes — no epoch bump, no barrier, node still a follower
  // and still applying. After disarm the same promote succeeds.
  ScopedFaultDisarm cleanup;
  net::Server leader(TinyServerOptions("promote_leader"));
  ASSERT_TRUE(leader.Start().ok());
  net::ServerOptions follower_options;
  follower_options.data_dir = TinyServerOptions("promote_follower").data_dir;
  follower_options.follow_host = "127.0.0.1";
  follower_options.follow_port = leader.port();
  net::Server follower(follower_options);
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >=
           leader.GetReplStatus().durable_lsn;
  }));

  FaultRegistry::Global().Arm(points::kReplPromote,
                              FaultSpec::Probability(1));
  uint64_t epoch = 0;
  uint64_t barrier = 0;
  const Status failed = follower.Promote(&epoch, &barrier);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed;
  EXPECT_NE(failed.message().find(points::kReplPromote), std::string::npos)
      << failed;
  auto status = follower.GetReplStatus();
  EXPECT_TRUE(status.is_follower);
  EXPECT_EQ(status.repl_epoch, 1u);
  EXPECT_EQ(status.epoch_start_lsn, 0u);

  // Still replicating: mutations on the leader keep flowing through.
  {
    net::Client writer;
    ASSERT_TRUE(writer.Connect(leader.host(), leader.port()).ok());
    net::MutationRequest mutation;
    mutation.statement =
        "insert into SDOC <Security><Symbol>PROFAULT</Symbol></Security>";
    ASSERT_TRUE(writer.Mutate(mutation).ok());
  }
  const uint64_t target = leader.GetReplStatus().durable_lsn;
  ASSERT_TRUE(WaitFor([&] {
    return follower.GetReplStatus().applier.applied_lsn >= target;
  }));

  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(follower.Promote(&epoch, &barrier).ok());
  EXPECT_EQ(epoch, 2u);
  EXPECT_GT(barrier, 0u);
  EXPECT_FALSE(follower.GetReplStatus().is_follower);

  follower.Stop();
  leader.Stop();
}

class OnlineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildSmallDatabase(&store_, &stats_).ok());
    advisor_ =
        std::make_unique<advisor::IndexAdvisor>(&store_, &stats_);
    capture_.set_enabled(true);
    for (const auto& stmt : MakeWorkload()) capture_.Publish(stmt);
  }

  workload::OnlineAdvisorOptions FastOptions() {
    workload::OnlineAdvisorOptions options;
    options.advisor.disk_budget_bytes = 1e6;
    options.backoff_initial_seconds = 0.001;
    options.backoff_multiplier = 2.0;
    return options;
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<advisor::IndexAdvisor> advisor_;
  workload::WorkloadCapture capture_;
};

TEST_F(OnlineFaultTest, RetryRecoversFromTransientFault) {
  ScopedFaultDisarm cleanup;
  workload::OnlineAdvisorOptions options = FastOptions();
  options.max_retries = 2;
  workload::OnlineAdvisor online(&capture_, advisor_.get(), options);

  // The first attempt of the pass fails; the retry succeeds.
  FaultRegistry::Global().Arm(points::kOnlineAdvise, FaultSpec::NthHit(1));
  EXPECT_TRUE(online.AdviseNow().ok());
  const workload::OnlineAdvisorStatus st = online.Snapshot();
  EXPECT_EQ(st.advise_runs, 1u);
  EXPECT_EQ(st.advise_failures, 0u);
  EXPECT_GE(st.advise_retries, 1u);
  EXPECT_EQ(st.consecutive_failures, 0u);
  EXPECT_FALSE(st.circuit_open);
  EXPECT_TRUE(st.last_error.empty());
  EXPECT_TRUE(st.has_recommendation);
}

TEST_F(OnlineFaultTest, CircuitBreakerOpensProbesAndCloses) {
  ScopedFaultDisarm cleanup;
  workload::OnlineAdvisorOptions options = FastOptions();
  options.max_retries = 0;
  options.circuit_breaker_failures = 2;
  options.circuit_cooldown_seconds = 0.05;
  workload::OnlineAdvisor online(&capture_, advisor_.get(), options);

  FaultRegistry::Global().Arm(points::kOnlineAdvise,
                              FaultSpec::Probability(1));
  // Two consecutive failed passes trip the breaker.
  EXPECT_EQ(online.AdviseNow().code(), StatusCode::kInternal);
  EXPECT_EQ(online.AdviseNow().code(), StatusCode::kInternal);
  workload::OnlineAdvisorStatus st = online.Snapshot();
  EXPECT_TRUE(st.circuit_open);
  EXPECT_EQ(st.circuit_opens, 1u);
  EXPECT_EQ(st.consecutive_failures, 2u);
  EXPECT_NE(st.last_error.find("fault injected"), std::string::npos);

  // While open and inside the cooldown, passes are rejected without
  // touching the advisor.
  EXPECT_EQ(online.AdviseNow().code(), StatusCode::kUnavailable);

  // A failed half-open probe re-opens for another cooldown.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_EQ(online.AdviseNow().code(), StatusCode::kInternal);
  st = online.Snapshot();
  EXPECT_TRUE(st.circuit_open);

  // Once the fault clears, the next probe closes the breaker.
  FaultRegistry::Global().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_TRUE(online.AdviseNow().ok());
  st = online.Snapshot();
  EXPECT_FALSE(st.circuit_open);
  EXPECT_EQ(st.consecutive_failures, 0u);
  EXPECT_TRUE(st.last_error.empty());
  EXPECT_TRUE(st.has_recommendation);
}

TEST_F(OnlineFaultTest, ProbabilisticFaultsEventuallyConverge) {
  // Under a 30% per-attempt fault, retries keep the advising loop alive:
  // across many passes at least one succeeds and none crash.
  ScopedFaultDisarm cleanup;
  workload::OnlineAdvisorOptions options = FastOptions();
  options.max_retries = 4;
  options.circuit_breaker_failures = 100;  // keep the breaker out of it
  workload::OnlineAdvisor online(&capture_, advisor_.get(), options);
  FaultRegistry::Global().set_seed(7);
  FaultRegistry::Global().Arm(points::kOnlineAdvise,
                              FaultSpec::Probability(0.3));
  int successes = 0;
  for (int i = 0; i < 10; ++i) {
    if (online.AdviseNow().ok()) ++successes;
  }
  EXPECT_GT(successes, 0);
  FaultRegistry::Global().set_seed(42);
}

}  // namespace
}  // namespace xia::fault
