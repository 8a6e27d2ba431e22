// Two-node replication tests over real loopback sockets.
//
// Two layers:
//   * real leader/follower Server pairs — snapshot join, log catch-up,
//     digest convergence, read-only enforcement, follower reads,
//     follower restart rejoin, leader-side ack tracking;
//   * a FakeLeader (raw Listener speaking the repl wire protocol) —
//     byte-level adversarial cases the real leader never produces:
//     duplicate LSNs, corrupt record payloads, flipped frame bytes,
//     truncated streams. Each must never partially apply and must
//     resubscribe from exactly last-good + 1.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "repl/hub.h"
#include "scratch_dir.h"
#include "util/status.h"
#include "wal/record.h"

namespace xia::net {
namespace {

namespace fs = std::filesystem;
using testutil::ScratchDir;

ServerOptions LeaderOptions(const std::string& data_dir) {
  ServerOptions options;
  options.demo = "tpox";
  options.demo_tpox_scale = tpox::TpoxScale{30, 40, 20, 42};
  options.data_dir = data_dir;
  return options;
}

ServerOptions FollowerOptions(const std::string& data_dir,
                              uint16_t leader_port,
                              const std::string& id = "f1") {
  ServerOptions options;
  options.data_dir = data_dir;
  options.follow_host = "127.0.0.1";
  options.follow_port = leader_port;
  options.follower_id = id;
  return options;
}

constexpr const char* kMarkerQuery =
    "for $s in c('SDOC')/Security[Yield = 9.9] return $s/Symbol";
constexpr const char* kMarkerMutation =
    "update SDOC set /Security/Yield = 9.9 "
    "where /Security[Symbol = \"SYM000017\"]";
constexpr const char* kPointQuery =
    "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000017\" return $s";

void MutateOk(const Server& server, const std::string& statement) {
  Client client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  MutationRequest request;
  request.statement = statement;
  const auto reply = client.Mutate(request);
  ASSERT_TRUE(reply.ok()) << reply.status();
}

// Polls (generously — sanitizer builds get starved) until `pred` holds.
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

bool WaitForApplied(const Server& follower, uint64_t lsn,
                    double timeout_s = 30.0) {
  return WaitFor(
      [&] { return follower.GetReplStatus().applier.applied_lsn >= lsn; },
      timeout_s);
}

std::string MustDigest(Server* server) {
  auto digest = server->StoreDigest();
  EXPECT_TRUE(digest.ok()) << digest.status();
  return digest.ok() ? *digest : std::string();
}

// ---------------------------------------------------------------------
// Real leader / follower pairs.
// ---------------------------------------------------------------------

TEST(ReplTest, FollowerJoinsViaSnapshotAndConverges) {
  Server leader(LeaderOptions(ScratchDir("conv_leader")));
  ASSERT_TRUE(leader.Start().ok());
  MutateOk(leader, kMarkerMutation);
  // Move the checkpoint horizon past the demo seed so the join must take
  // the snapshot-transfer path, then keep mutating so log catch-up runs
  // too.
  ASSERT_TRUE(leader.CheckpointNow().ok());
  MutateOk(leader,
           "insert into SDOC "
           "<Security><Symbol>RPLX1</Symbol><Yield>1.0</Yield></Security>");

  Server follower(FollowerOptions(ScratchDir("conv_follower"), leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  const uint64_t target = leader.GetReplStatus().durable_lsn;
  ASSERT_GT(target, 0u);
  ASSERT_TRUE(WaitForApplied(follower, target))
      << "applied=" << follower.GetReplStatus().applier.applied_lsn
      << " want=" << target
      << " err=" << follower.GetReplStatus().applier.last_error;

  const auto stats = follower.GetReplStatus();
  EXPECT_TRUE(stats.is_follower);
  EXPECT_GE(stats.applier.snapshots_installed, 1u);
  EXPECT_TRUE(stats.applier.sticky_error.empty())
      << stats.applier.sticky_error;
  EXPECT_EQ(MustDigest(&leader), MustDigest(&follower));

  // Leader-side view: the follower is streaming and its acks catch up to
  // the durable LSN.
  ASSERT_TRUE(WaitFor([&] {
    const auto repl = leader.GetReplStatus();
    return repl.followers.size() == 1 &&
           repl.followers[0].acked_lsn >= target;
  })) << "acks never reached " << target;
  const auto leader_view = leader.GetReplStatus();
  EXPECT_EQ(leader_view.followers[0].follower_id, "f1");
  EXPECT_TRUE(leader_view.followers[0].streaming);

  follower.Stop();
  leader.Stop();
}

TEST(ReplTest, ShellSeededLeaderReplicatesItsBulkLoad) {
  // The shell's demo/load/restore sequence: a bulk load through
  // Database into a fresh data dir, closed, then served by a leader. The
  // follower subscribes from LSN 1 and must receive the seed.
  const std::string leader_dir = ScratchDir("seeded_leader");
  {
    Database db(DatabaseOptions{leader_dir, "", {}});
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.BulkLoad([](storage::DocumentStore* store,
                               storage::StatisticsCatalog* statistics) {
                    return tpox::BuildTpoxDatabase(
                        tpox::TpoxScale{30, 40, 20, 42}, store, statistics);
                  })
                    .ok());
  }
  ServerOptions leader_options;
  leader_options.data_dir = leader_dir;
  Server leader(leader_options);
  ASSERT_TRUE(leader.Start().ok());
  Server follower(FollowerOptions(ScratchDir("seeded_follower"),
                                  leader.port()));
  ASSERT_TRUE(follower.Start().ok());

  EXPECT_TRUE(WaitFor([&] {
    return MustDigest(&leader) == MustDigest(&follower);
  })) << "err=" << follower.GetReplStatus().applier.last_error;
  EXPECT_EQ(MustDigest(&leader), MustDigest(&follower));
}

TEST(ReplTest, FollowerStreamsLiveMutations) {
  Server leader(LeaderOptions(ScratchDir("live_leader")));
  ASSERT_TRUE(leader.Start().ok());
  Server follower(FollowerOptions(ScratchDir("live_follower"), leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitForApplied(follower, leader.GetReplStatus().durable_lsn));

  // Mutations issued after the follower attached arrive via the live
  // stream (no snapshot in between).
  const uint64_t snapshots_before =
      follower.GetReplStatus().applier.snapshots_installed;
  MutateOk(leader, kMarkerMutation);
  ASSERT_TRUE(WaitForApplied(follower, leader.GetReplStatus().durable_lsn));
  EXPECT_EQ(follower.GetReplStatus().applier.snapshots_installed,
            snapshots_before);

  Client reader;
  ASSERT_TRUE(reader.Connect(follower.host(), follower.port()).ok());
  QueryRequest query;
  query.statement = kMarkerQuery;
  const auto reply = reader.Query(query);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->result_count, 1u);
  EXPECT_EQ(MustDigest(&leader), MustDigest(&follower));

  follower.Stop();
  leader.Stop();
}

TEST(ReplTest, FollowerRejectsMutationsButServesReads) {
  Server leader(LeaderOptions(ScratchDir("ro_leader")));
  ASSERT_TRUE(leader.Start().ok());
  Server follower(FollowerOptions(ScratchDir("ro_follower"), leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitForApplied(follower, leader.GetReplStatus().durable_lsn));

  Client client;
  ASSERT_TRUE(client.Connect(follower.host(), follower.port()).ok());

  // Mutations: rejected with kReadOnly, and nothing applied.
  MutationRequest mutation;
  mutation.statement = kMarkerMutation;
  const auto mreply = client.Mutate(mutation);
  ASSERT_FALSE(mreply.ok());
  EXPECT_EQ(mreply.status().code(), StatusCode::kReadOnly)
      << mreply.status();
  EXPECT_EQ(StatusExitCode(mreply.status()), 24);

  // EXPLAIN ANALYZE executes the statement, so a mutation must be
  // rejected there too; plain EXPLAIN of a query is fine.
  ExplainRequest explain;
  explain.statement = kMarkerMutation;
  explain.analyze = true;
  const auto analyzed = client.Explain(explain);
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kReadOnly);
  explain.statement = kPointQuery;
  explain.analyze = false;
  const auto plan = client.Explain(explain);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->text.find("SCAN"), std::string::npos) << plan->text;

  // Reads and what-if advising still work on the replica.
  QueryRequest query;
  query.statement = kPointQuery;
  const auto qreply = client.Query(query);
  ASSERT_TRUE(qreply.ok()) << qreply.status();
  EXPECT_EQ(qreply->result_count, 1u);

  AdviseRequest advise;
  advise.workload_text =
      std::string("@freq=20 @label=get_security\n") + kPointQuery + ";\n";
  advise.disk_budget_bytes = 1024 * 1024;
  const auto rec = client.Advise(advise);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->indexes.empty());

  // The marker mutation never leaked into the replica.
  QueryRequest marker;
  marker.statement = kMarkerQuery;
  const auto mcount = client.Query(marker);
  ASSERT_TRUE(mcount.ok()) << mcount.status();
  EXPECT_EQ(mcount->result_count, 0u);

  follower.Stop();
  leader.Stop();
}

TEST(ReplTest, FollowerRestartRejoinsFromLocalWal) {
  Server leader(LeaderOptions(ScratchDir("rejoin_leader")));
  ASSERT_TRUE(leader.Start().ok());
  const std::string follower_dir = ScratchDir("rejoin_follower");
  {
    Server follower(FollowerOptions(follower_dir, leader.port()));
    ASSERT_TRUE(follower.Start().ok());
    ASSERT_TRUE(WaitForApplied(follower, leader.GetReplStatus().durable_lsn));
    follower.Stop();
  }

  // Progress while the follower is down.
  MutateOk(leader, kMarkerMutation);
  MutateOk(leader,
           "insert into SDOC "
           "<Security><Symbol>RPLX2</Symbol><Yield>2.0</Yield></Security>");

  // Same data dir: recover the local WAL, resubscribe, catch up.
  Server follower(FollowerOptions(follower_dir, leader.port()));
  ASSERT_TRUE(follower.Start().ok());
  const uint64_t target = leader.GetReplStatus().durable_lsn;
  ASSERT_TRUE(WaitForApplied(follower, target))
      << follower.GetReplStatus().applier.last_error;
  EXPECT_EQ(MustDigest(&leader), MustDigest(&follower));
  EXPECT_TRUE(follower.GetReplStatus().applier.sticky_error.empty());

  follower.Stop();
  leader.Stop();
}

// ---------------------------------------------------------------------
// FakeLeader: byte-level adversarial streams.
// ---------------------------------------------------------------------

// A raw Listener that accepts follower connections, records each
// kReplSubscribe it sees, and hands the accepted socket to the test for
// scripted (possibly malformed) frames.
class FakeLeader {
 public:
  FakeLeader() {
    auto status = listener_.Listen("127.0.0.1", 0);
    EXPECT_TRUE(status.ok()) << status;
  }
  ~FakeLeader() { listener_.Close(); }

  uint16_t port() const { return listener_.port(); }

  // Blocks until the next follower connection arrives and its subscribe
  // request is read. Returns false on accept/read failure.
  bool AcceptSubscriber(Socket* out, ReplSubscribeRequest* subscribe) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return false;
    *out = std::move(*accepted);
    FrameReader reader;
    char buf[4096];
    for (;;) {
      Frame frame;
      std::string error;
      const auto next = reader.Poll(&frame, &error);
      if (next == FrameReader::Next::kBad) return false;
      if (next == FrameReader::Next::kFrame) {
        if (frame.type != MsgType::kReplSubscribe) return false;
        auto decoded = DecodeReplSubscribeRequest(frame.payload);
        if (!decoded.ok()) return false;
        *subscribe = std::move(*decoded);
        return true;
      }
      const auto readable = out->WaitReadable(10.0);
      if (!readable.ok() || !*readable) return false;
      const auto n = out->Recv(buf, sizeof(buf));
      if (!n.ok() || *n == 0) return false;
      reader.Feed(std::string_view(buf, *n));
    }
  }

  static std::string RecordFrame(const wal::WalRecord& record) {
    return EncodeFrame(MsgType::kReplFrame, 0, wal::EncodeRecord(record));
  }

 private:
  Listener listener_;
};

wal::WalRecord RecordAt(uint64_t lsn, wal::WalRecord record) {
  record.lsn = lsn;
  return record;
}

TEST(ReplTest, DuplicateLsnFramesAreSkippedIdempotently) {
  FakeLeader fake;
  Server follower(
      FollowerOptions(ScratchDir("dup_follower"), fake.port(), "dup"));
  ASSERT_TRUE(follower.Start().ok());

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  EXPECT_EQ(subscribe.follower_id, "dup");
  EXPECT_EQ(subscribe.start_lsn, 1u);

  const auto create = RecordAt(1, wal::WalRecord::CreateCollection("C"));
  const auto insert =
      RecordAt(2, wal::WalRecord::Insert("C", "<a><b>one</b></a>"));
  const auto insert2 =
      RecordAt(3, wal::WalRecord::Insert("C", "<a><b>two</b></a>"));
  ASSERT_TRUE(stream.SendAll(FakeLeader::RecordFrame(create)).ok());
  ASSERT_TRUE(stream.SendAll(FakeLeader::RecordFrame(insert)).ok());
  // Replay LSN 2 — a retransmit after an ack loss. Must be a no-op.
  ASSERT_TRUE(stream.SendAll(FakeLeader::RecordFrame(insert)).ok());
  ASSERT_TRUE(stream.SendAll(FakeLeader::RecordFrame(insert2)).ok());
  // Stats so the query below can plan against C.
  ASSERT_TRUE(
      stream
          .SendAll(FakeLeader::RecordFrame(
              RecordAt(4, wal::WalRecord::StatsRefresh("C"))))
          .ok());

  ASSERT_TRUE(WaitForApplied(follower, 4));
  const auto stats = follower.GetReplStatus().applier;
  EXPECT_EQ(stats.records_applied, 4u);
  EXPECT_GE(stats.duplicates_skipped, 1u);
  EXPECT_TRUE(stats.sticky_error.empty()) << stats.sticky_error;

  // Exactly one copy of each document landed.
  Client client;
  ASSERT_TRUE(client.Connect(follower.host(), follower.port()).ok());
  QueryRequest query;
  query.statement = "for $x in c('C')/a return $x/b";
  const auto reply = client.Query(query);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->result_count, 2u);

  stream.Close();
  follower.Stop();
}

TEST(ReplTest, CorruptRecordPayloadNeverAppliesAndResubscribes) {
  FakeLeader fake;
  Server follower(
      FollowerOptions(ScratchDir("corrupt_follower"), fake.port(), "cr"));
  ASSERT_TRUE(follower.Start().ok());

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  ASSERT_TRUE(
      stream
          .SendAll(FakeLeader::RecordFrame(
              RecordAt(1, wal::WalRecord::CreateCollection("C"))))
          .ok());
  ASSERT_TRUE(WaitForApplied(follower, 1));

  // A structurally valid net frame whose payload is not a WAL record:
  // the frame CRC passes, DecodeRecord must not, and nothing applies.
  ASSERT_TRUE(stream
                  .SendAll(EncodeFrame(MsgType::kReplFrame, 0,
                                       "these bytes are not a wal record"))
                  .ok());

  // The follower drops the stream and resubscribes from last-good + 1.
  Socket stream2;
  ReplSubscribeRequest resubscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream2, &resubscribe));
  EXPECT_EQ(resubscribe.start_lsn, 2u);
  const auto stats = follower.GetReplStatus().applier;
  EXPECT_EQ(stats.applied_lsn, 1u);
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_GE(stats.resubscribes, 1u);
  EXPECT_TRUE(stats.sticky_error.empty()) << stats.sticky_error;

  // The retried stream completes the apply — full recovery.
  ASSERT_TRUE(stream2
                  .SendAll(FakeLeader::RecordFrame(
                      RecordAt(2, wal::WalRecord::Insert("C", "<a/>"))))
                  .ok());
  ASSERT_TRUE(WaitForApplied(follower, 2));

  stream.Close();
  stream2.Close();
  follower.Stop();
}

TEST(ReplTest, FlippedFrameByteNeverAppliesAndResubscribes) {
  FakeLeader fake;
  Server follower(
      FollowerOptions(ScratchDir("flip_follower"), fake.port(), "fl"));
  ASSERT_TRUE(follower.Start().ok());

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  ASSERT_TRUE(
      stream
          .SendAll(FakeLeader::RecordFrame(
              RecordAt(1, wal::WalRecord::CreateCollection("C"))))
          .ok());
  ASSERT_TRUE(WaitForApplied(follower, 1));

  // Flip one byte mid-frame: the frame CRC catches it, the reader goes
  // sticky-bad, and the record inside must never apply.
  std::string frame = FakeLeader::RecordFrame(
      RecordAt(2, wal::WalRecord::Insert("C", "<a><b>bitrot</b></a>")));
  frame[frame.size() / 2] ^= 0x40;
  ASSERT_TRUE(stream.SendAll(frame).ok());

  Socket stream2;
  ReplSubscribeRequest resubscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream2, &resubscribe));
  EXPECT_EQ(resubscribe.start_lsn, 2u);
  EXPECT_EQ(follower.GetReplStatus().applier.applied_lsn, 1u);
  EXPECT_TRUE(follower.GetReplStatus().applier.sticky_error.empty());

  ASSERT_TRUE(stream2
                  .SendAll(FakeLeader::RecordFrame(RecordAt(
                      2, wal::WalRecord::Insert("C", "<a><b>ok</b></a>"))))
                  .ok());
  ASSERT_TRUE(WaitForApplied(follower, 2));
  EXPECT_EQ(follower.GetReplStatus().applier.records_applied, 2u);

  stream.Close();
  stream2.Close();
  follower.Stop();
}

TEST(ReplTest, TruncatedStreamNeverAppliesAndResubscribes) {
  FakeLeader fake;
  Server follower(
      FollowerOptions(ScratchDir("trunc_follower"), fake.port(), "tr"));
  ASSERT_TRUE(follower.Start().ok());

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  ASSERT_TRUE(
      stream
          .SendAll(FakeLeader::RecordFrame(
              RecordAt(1, wal::WalRecord::CreateCollection("C"))))
          .ok());
  ASSERT_TRUE(WaitForApplied(follower, 1));

  // Half a frame, then the connection dies — a partition mid-send.
  const std::string frame = FakeLeader::RecordFrame(
      RecordAt(2, wal::WalRecord::Insert("C", "<a><b>cut</b></a>")));
  ASSERT_TRUE(
      stream.SendAll(std::string_view(frame).substr(0, frame.size() / 2))
          .ok());
  stream.Close();

  Socket stream2;
  ReplSubscribeRequest resubscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream2, &resubscribe));
  EXPECT_EQ(resubscribe.start_lsn, 2u);
  EXPECT_EQ(follower.GetReplStatus().applier.applied_lsn, 1u);
  EXPECT_TRUE(follower.GetReplStatus().applier.sticky_error.empty());

  ASSERT_TRUE(stream2.SendAll(frame).ok());
  ASSERT_TRUE(WaitForApplied(follower, 2));

  stream2.Close();
  follower.Stop();
}

// ---------------------------------------------------------------------
// Snapshot transfer must fail closed (DESIGN §15).
// ---------------------------------------------------------------------

bool DirHasTmpFiles(const std::string& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

ReplSnapshotPayload BigSnapshotPayload() {
  ReplSnapshotPayload snap;
  snap.checkpoint_lsn = 7;
  snap.has_snapshot = true;
  snap.has_catalog = true;
  snap.snapshot_bytes = std::string(64 * 1024, 'x');
  snap.catalog_bytes = "these bytes are not a catalog image";
  return snap;
}

TEST(ReplTest, TruncatedSnapshotTransferFailsClosed) {
  // The leader dies (restart, crash, partition) halfway through sending
  // a kReplSnapshot frame. The partial image must be discarded whole:
  // nothing staged on disk, store untouched, and the follower
  // resubscribes from exactly where it was.
  FakeLeader fake;
  const std::string dir = ScratchDir("snapcut_follower");
  Server follower(FollowerOptions(dir, fake.port(), "sc"));
  ASSERT_TRUE(follower.Start().ok());
  const std::string empty_digest = MustDigest(&follower);

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  EXPECT_EQ(subscribe.start_lsn, 1u);

  const std::string frame = EncodeFrame(
      MsgType::kReplSnapshot, 0, EncodeReplSnapshotPayload(
                                     BigSnapshotPayload()));
  ASSERT_TRUE(
      stream.SendAll(std::string_view(frame).substr(0, frame.size() / 2))
          .ok());
  stream.Close();  // the "restart": connection dies mid-transfer

  Socket stream2;
  ReplSubscribeRequest resubscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream2, &resubscribe));
  EXPECT_EQ(resubscribe.start_lsn, 1u);

  const auto stats = follower.GetReplStatus();
  EXPECT_EQ(stats.applier.snapshots_installed, 0u);
  EXPECT_EQ(stats.applier.applied_lsn, 0u);
  EXPECT_EQ(stats.checkpoint_lsn, 0u);
  EXPECT_TRUE(stats.applier.sticky_error.empty())
      << stats.applier.sticky_error;
  EXPECT_FALSE(DirHasTmpFiles(dir));
  EXPECT_EQ(MustDigest(&follower), empty_digest);

  // The retried stream works normally — the partial image left no scars.
  ASSERT_TRUE(
      stream2
          .SendAll(FakeLeader::RecordFrame(
              RecordAt(1, wal::WalRecord::CreateCollection("C"))))
          .ok());
  ASSERT_TRUE(WaitForApplied(follower, 1));

  stream2.Close();
  follower.Stop();
}

TEST(ReplTest, CorruptSnapshotImageFailsClosedAndResubscribes) {
  // A complete frame whose snapshot bytes are garbage: the installer
  // must reject it in staging (kDataLoss) with the live store, the
  // files, and the manifest untouched.
  FakeLeader fake;
  const std::string dir = ScratchDir("snapbad_follower");
  Server follower(FollowerOptions(dir, fake.port(), "sb"));
  ASSERT_TRUE(follower.Start().ok());
  const std::string empty_digest = MustDigest(&follower);

  Socket stream;
  ReplSubscribeRequest subscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream, &subscribe));
  ASSERT_TRUE(stream
                  .SendAll(EncodeFrame(
                      MsgType::kReplSnapshot, 0,
                      EncodeReplSnapshotPayload(BigSnapshotPayload())))
                  .ok());

  Socket stream2;
  ReplSubscribeRequest resubscribe;
  ASSERT_TRUE(fake.AcceptSubscriber(&stream2, &resubscribe));
  EXPECT_EQ(resubscribe.start_lsn, 1u);
  const auto stats = follower.GetReplStatus();
  EXPECT_EQ(stats.applier.snapshots_installed, 0u);
  EXPECT_EQ(stats.checkpoint_lsn, 0u);
  EXPECT_TRUE(stats.applier.sticky_error.empty())
      << stats.applier.sticky_error;
  EXPECT_FALSE(DirHasTmpFiles(dir));
  EXPECT_EQ(MustDigest(&follower), empty_digest);

  stream.Close();
  stream2.Close();
  follower.Stop();
}

// ---------------------------------------------------------------------
// ReplHub quorum bookkeeping (DESIGN §15).
// ---------------------------------------------------------------------

TEST(ReplHubTest, QuorumOfZeroIsImmediate) {
  repl::ReplHub hub;
  EXPECT_TRUE(hub.WaitForQuorum(100, 0, 0.0));
}

TEST(ReplHubTest, QuorumTimesOutWithoutEnoughAcks) {
  repl::ReplHub hub;
  EXPECT_FALSE(hub.WaitForQuorum(1, 1, 0.02));
  // One follower acked, but the quorum wants two distinct ones: the
  // same follower acking again must not count twice.
  hub.OnSubscribe("f1", 1);
  hub.OnAck("f1", 5);
  hub.OnAck("f1", 6);
  EXPECT_TRUE(hub.WaitForQuorum(5, 1, 0.0));
  EXPECT_FALSE(hub.WaitForQuorum(5, 2, 0.02));
  EXPECT_EQ(hub.CountAcked(5), 1u);
  // A stale ack (lower than what f1 already reported) is ignored.
  hub.OnAck("f1", 2);
  EXPECT_TRUE(hub.WaitForQuorum(6, 1, 0.0));
}

TEST(ReplHubTest, AckFromSecondFollowerWakesWaiter) {
  repl::ReplHub hub;
  hub.OnSubscribe("f1", 1);
  hub.OnAck("f1", 10);
  std::thread acker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hub.OnSubscribe("f2", 1);
    hub.OnAck("f2", 10);
  });
  // Blocks until f2's ack arrives; generous timeout for starved CI.
  EXPECT_TRUE(hub.WaitForQuorum(10, 2, 30.0));
  acker.join();
  EXPECT_EQ(hub.CountAcked(10), 2u);
}

TEST(ReplHubTest, DisconnectedFollowersPruneAfterTtl) {
  repl::ReplHub hub(/*disconnected_ttl_s=*/0.05);
  hub.OnSubscribe("gone", 1);
  hub.OnAck("gone", 3);
  hub.OnDisconnect("gone");
  ASSERT_TRUE(WaitFor([&] { return hub.Snapshot().empty(); }, 10.0));
  // Its acks no longer satisfy quorums: the follower is forgotten.
  EXPECT_EQ(hub.CountAcked(3), 0u);

  // TTL 0 keeps disconnected entries forever (the PR-7 behavior).
  repl::ReplHub keeper(/*disconnected_ttl_s=*/0);
  keeper.OnSubscribe("gone", 1);
  keeper.OnDisconnect("gone");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_EQ(keeper.Snapshot().size(), 1u);
  EXPECT_FALSE(keeper.Snapshot()[0].streaming);
}

// ---------------------------------------------------------------------
// Quorum-acknowledged commit and epoch fencing, end to end.
// ---------------------------------------------------------------------

TEST(ReplTest, QuorumMutationFailsWithoutFollowersThenSucceeds) {
  ServerOptions options = LeaderOptions(ScratchDir("quorum_leader"));
  options.sync_replicas = 1;
  options.quorum_timeout_ms = 200;  // fail fast while no follower exists
  Server leader(options);
  ASSERT_TRUE(leader.Start().ok());

  // No follower: the mutation commits locally but the quorum promise
  // cannot be met — loud kUnavailable, never a silent async downgrade.
  Client client;
  ASSERT_TRUE(client.Connect(leader.host(), leader.port()).ok());
  MutationRequest mutation;
  mutation.statement =
      "insert into SDOC "
      "<Security><Symbol>QRM1</Symbol><Yield>1.0</Yield></Security>";
  const auto rejected = client.Mutate(mutation);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status();
  EXPECT_NE(rejected.status().ToString().find("committed locally"),
            std::string::npos)
      << rejected.status();

  // The write IS durable locally — a quorum timeout is about the
  // replication promise, not a rollback.
  Client reader;
  ASSERT_TRUE(reader.Connect(leader.host(), leader.port()).ok());
  QueryRequest query;
  query.statement =
      "for $s in c('SDOC')/Security where $s/Symbol = \"QRM1\" return $s";
  const auto count = reader.Query(query);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->result_count, 1u);

  // With a follower attached and caught up, the same quorum is met.
  Server follower(
      FollowerOptions(ScratchDir("quorum_follower"), leader.port(), "q1"));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    const auto repl = leader.GetReplStatus();
    return repl.followers.size() == 1 &&
           repl.followers[0].acked_lsn >= leader.GetReplStatus().durable_lsn;
  }));
  mutation.statement =
      "insert into SDOC "
      "<Security><Symbol>QRM2</Symbol><Yield>2.0</Yield></Security>";
  const auto accepted = client.Mutate(mutation);
  ASSERT_TRUE(accepted.ok()) << accepted.status();

  follower.Stop();
  leader.Stop();
}

TEST(ReplTest, PromoteBumpsEpochAndFencesStaleWrites) {
  Server leader(LeaderOptions(ScratchDir("promo_leader")));
  ASSERT_TRUE(leader.Start().ok());
  Server follower(
      FollowerOptions(ScratchDir("promo_follower"), leader.port(), "pr"));
  ASSERT_TRUE(follower.Start().ok());
  ASSERT_TRUE(WaitForApplied(follower, leader.GetReplStatus().durable_lsn));

  // Promote the follower: epoch bump plus a fencing barrier in its WAL.
  uint64_t epoch = 0;
  uint64_t barrier = 0;
  ASSERT_TRUE(follower.Promote(&epoch, &barrier).ok());
  EXPECT_EQ(epoch, 2u);
  EXPECT_GT(barrier, 0u);
  EXPECT_FALSE(follower.GetReplStatus().is_follower);

  // A retried promote is idempotent: same epoch, no second bump.
  uint64_t epoch2 = 0;
  uint64_t barrier2 = 0;
  ASSERT_TRUE(follower.Promote(&epoch2, &barrier2).ok());
  EXPECT_EQ(epoch2, epoch);
  EXPECT_EQ(barrier2, barrier);

  Client client;
  ASSERT_TRUE(client.Connect(follower.host(), follower.port()).ok());

  // A client still fencing to the old epoch is rejected with kFenced
  // and told where the leader is; the current epoch (and epoch 0 =
  // "any") pass.
  MutationRequest mutation;
  mutation.statement =
      "insert into SDOC "
      "<Security><Symbol>EPO1</Symbol><Yield>1.0</Yield></Security>";
  mutation.expected_epoch = 1;
  const auto fenced = client.Mutate(mutation);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), StatusCode::kFenced) << fenced.status();

  mutation.expected_epoch = epoch;
  const auto current = client.Mutate(mutation);
  ASSERT_TRUE(current.ok()) << current.status();

  mutation.statement =
      "insert into SDOC "
      "<Security><Symbol>EPO2</Symbol><Yield>2.0</Yield></Security>";
  mutation.expected_epoch = 0;
  const auto any_epoch = client.Mutate(mutation);
  ASSERT_TRUE(any_epoch.ok()) << any_epoch.status();

  const auto status = follower.GetReplStatus();
  EXPECT_EQ(status.repl_epoch, 2u);
  EXPECT_EQ(status.epoch_start_lsn, barrier);

  follower.Stop();
  leader.Stop();
}

}  // namespace
}  // namespace xia::net
