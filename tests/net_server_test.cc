// End-to-end tests for xia::net::Server / Client over real loopback
// sockets: every request type, protocol corruption against a live
// server (no partial mutation), admission control, graceful drain,
// killed clients, WAL persistence across restarts, and the net fault
// points' own matrix (the advise-pipeline matrix in fault_matrix_test
// never crosses socket code).

#include "net/server.h"

#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "scratch_dir.h"
#include "util/status.h"
#include "util/string_util.h"

namespace xia::net {
namespace {

using testutil::ScratchDir;

ServerOptions SmallTpoxOptions() {
  ServerOptions options;
  options.demo = "tpox";
  // Loopback-test scale: every code path, millisecond startup.
  options.demo_tpox_scale = tpox::TpoxScale{30, 40, 20, 42};
  return options;
}

constexpr const char* kPointQuery =
    "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000017\" return $s";
constexpr const char* kMarkerQuery =
    "for $s in c('SDOC')/Security[Yield = 9.9] return $s/Symbol";
constexpr const char* kMarkerMutation =
    "update SDOC set /Security/Yield = 9.9 "
    "where /Security[Symbol = \"SYM000017\"]";

Client MustConnect(const Server& server) {
  Client client;
  EXPECT_TRUE(client.Connect(server.host(), server.port()).ok());
  return client;
}

// Waits (generously — CI machines get starved) until the server has
// admitted at least `n` requests. A fixed pre-assert sleep flakes when a
// concurrent sanitizer build steals the CPU for hundreds of ms.
void WaitForInflight(const Server& server, size_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (server.GetStats().inflight_requests >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "server never reached " << n << " in-flight requests";
}

uint64_t MarkerCount(Client* client) {
  QueryRequest request;
  request.statement = kMarkerQuery;
  const auto reply = client->Query(request);
  EXPECT_TRUE(reply.ok()) << reply.status();
  return reply.ok() ? reply->result_count : ~0ull;
}

TEST(NetServerTest, StartServesEveryRequestTypeAndStops) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  Client client = MustConnect(server);

  // ping
  const auto pong = client.Ping("token-123");
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(*pong, "token-123");

  // query (with rows)
  QueryRequest query;
  query.statement = kPointQuery;
  query.materialize_rows = true;
  const auto qreply = client.Query(query);
  ASSERT_TRUE(qreply.ok()) << qreply.status();
  EXPECT_EQ(qreply->result_count, 1u);
  ASSERT_EQ(qreply->rows.size(), 1u);
  EXPECT_NE(qreply->rows[0].find("SYM000017"), std::string::npos);

  // explain / explain analyze
  ExplainRequest explain;
  explain.statement = kPointQuery;
  const auto plan = client.Explain(explain);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->text.find("SCAN"), std::string::npos) << plan->text;
  explain.analyze = true;
  const auto analyzed = client.Explain(explain);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->text.find("actual"), std::string::npos)
      << analyzed->text;

  // mutation, observed by a follow-up query
  EXPECT_EQ(MarkerCount(&client), 0u);
  MutationRequest mutation;
  mutation.statement = kMarkerMutation;
  const auto mreply = client.Mutate(mutation);
  ASSERT_TRUE(mreply.ok()) << mreply.status();
  EXPECT_EQ(mreply->result_count, 1u);
  EXPECT_EQ(MarkerCount(&client), 1u);

  // advise over an explicit workload text
  AdviseRequest advise;
  advise.workload_text =
      std::string("@freq=20 @label=get_security\n") + kPointQuery + ";\n";
  advise.disk_budget_bytes = 1024 * 1024;
  advise.algorithm = "topdown-full";
  const auto rec = client.Advise(advise);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->indexes.empty());
  EXPECT_GT(rec->est_speedup, 1.0);

  // advise over the captured workload (the statements above)
  AdviseRequest captured;
  captured.disk_budget_bytes = 1024 * 1024;
  const auto rec2 = client.Advise(captured);
  ASSERT_TRUE(rec2.ok()) << rec2.status();
  EXPECT_FALSE(rec2->indexes.empty());

  // metrics
  const auto metrics = client.Metrics(MetricsFormat::kJson);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->text.find("xia.net.requests.query"), std::string::npos);

  const ServerStats stats = server.GetStats();
  EXPECT_EQ(stats.connections_total, 1u);
  EXPECT_GE(stats.requests_total, 9u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  EXPECT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.running());
  // Idempotent.
  EXPECT_TRUE(server.Stop().ok());
}

// Per-type request metrics keep their names: one ping and one query show
// up as xia.net.requests.{ping,query} = 1 with one latency sample each.
TEST(NetServerTest, MetricsCountEachRequestTypeOnce) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with XIA_OBS_OFF";
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);
  obs::MetricsRegistry::Global().ResetAll();

  ASSERT_TRUE(client.Ping("p").ok());
  QueryRequest query;
  query.statement = kPointQuery;
  ASSERT_TRUE(client.Query(query).ok());
  const auto metrics = client.Metrics(MetricsFormat::kJson);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  for (const char* type : {"ping", "query"}) {
    EXPECT_NE(metrics->text.find(StringPrintf(
                  "{\"name\":\"xia.net.requests.%s\",\"kind\":\"counter\","
                  "\"value\":1}",
                  type)),
              std::string::npos)
        << type << "\n" << metrics->text;
    EXPECT_NE(metrics->text.find(StringPrintf(
                  "{\"name\":\"xia.net.latency.%s\",\"kind\":\"histogram\","
                  "\"count\":1,",
                  type)),
              std::string::npos)
        << type << "\n" << metrics->text;
  }
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, RequestErrorsKeepSessionUsable) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  QueryRequest bad;
  bad.statement = "this is not XQuery";
  EXPECT_EQ(client.Query(bad).status().code(), StatusCode::kParseError);

  QueryRequest missing;
  missing.statement = "for $x in c('NOPE')/Y return $x";
  EXPECT_EQ(client.Query(missing).status().code(), StatusCode::kNotFound);

  // Mutations must be refused on the query path and vice versa.
  QueryRequest wrong_kind;
  wrong_kind.statement = kMarkerMutation;
  EXPECT_EQ(client.Query(wrong_kind).status().code(),
            StatusCode::kInvalidArgument);
  MutationRequest not_mutation;
  not_mutation.statement = kPointQuery;
  EXPECT_EQ(client.Mutate(not_mutation).status().code(),
            StatusCode::kInvalidArgument);

  // Request-level errors are answered, not fatal: same session works on.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server.GetStats().protocol_errors, 0u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, PerRequestDeadlineBecomesDeadlineExceeded) {
  ServerOptions options = SmallTpoxOptions();
  options.default_budget_ms = 30;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server);

  // The sleep ping polls the request deadline — it must be cut off.
  const auto slept = client.Ping("sleep=2000");
  ASSERT_FALSE(slept.ok());
  EXPECT_EQ(slept.status().code(), StatusCode::kDeadlineExceeded);
  // And the session survives its own timed-out request.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(server.Stop().ok());
}

// Satellite 1 against a live server: flip one bit at EVERY offset of a
// framed mutation. The server must answer a clean error frame (or just
// drop the session), must never execute the mutation, and must keep
// serving other clients.
TEST(NetServerTest, ByteFlippedMutationNeverExecutes) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());

  const std::string frame =
      EncodeFrame(MsgType::kMutation, 7,
                  EncodeMutationRequest(MutationRequest{kMarkerMutation, 0}));

  for (size_t offset = 0; offset < frame.size(); ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::string corrupt = frame;
    corrupt[offset] ^= 0x01;

    auto socket = ConnectTcp(server.host(), server.port());
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(socket->SendAll(corrupt).ok());
    // Half-close: flips that enlarge payload_len leave the server
    // waiting for bytes that never come; EOF resolves that to a clean
    // session drop instead of a hang.
    socket->ShutdownWrite();

    // Read to EOF; anything received must be a well-formed kError frame.
    FrameReader reader;
    char buf[4096];
    for (;;) {
      const auto got = socket->Recv(buf, sizeof(buf));
      if (!got.ok() || *got == 0) break;
      reader.Feed(std::string_view(buf, *got));
    }
    Frame response;
    std::string error;
    while (reader.Poll(&response, &error) == FrameReader::Next::kFrame) {
      EXPECT_EQ(response.type, MsgType::kError);
      const auto decoded = DecodeErrorReply(response.payload);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_NE(decoded->code, StatusCode::kOk);
    }
  }

  // No corrupted frame executed: the marker mutation never applied, and
  // the server still serves a fresh client.
  Client client = MustConnect(server);
  EXPECT_EQ(MarkerCount(&client), 0u);
  EXPECT_GT(server.GetStats().protocol_errors, 0u);

  // The pristine frame still works — the corruption loop proved
  // detection, not that the mutation itself was unexecutable.
  MutationRequest mutation;
  mutation.statement = kMarkerMutation;
  ASSERT_TRUE(client.Mutate(mutation).ok());
  EXPECT_EQ(MarkerCount(&client), 1u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, TruncatedMutationNeverExecutes) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());

  const std::string frame =
      EncodeFrame(MsgType::kMutation, 9,
                  EncodeMutationRequest(MutationRequest{kMarkerMutation, 0}));
  // Every strict prefix: connection dies mid-frame; the partial request
  // must never dispatch.
  for (size_t len = 0; len < frame.size(); ++len) {
    auto socket = ConnectTcp(server.host(), server.port());
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(socket->SendAll(std::string_view(frame.data(), len)).ok());
    socket->Close();
  }

  Client client = MustConnect(server);
  EXPECT_EQ(MarkerCount(&client), 0u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, ConcurrentClientsMixedWorkload) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kRequests = 20;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures, t] {
      Client client;
      Status status = client.Connect(server.host(), server.port());
      for (int r = 0; status.ok() && r < kRequests; ++r) {
        if (t % 4 == 0 && r % 5 == 0) {
          // Writers: exercise the exclusive-lock path under load.
          MutationRequest mutation;
          mutation.statement = kMarkerMutation;
          status = client.Mutate(mutation).status();
        } else if (r % 3 == 0) {
          status = client.Ping("t" + std::to_string(t)).status();
        } else {
          QueryRequest query;
          query.statement = kPointQuery;
          status = client.Query(query).status();
        }
      }
      failures[t] = status;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": " << failures[t];
  }
  const ServerStats stats = server.GetStats();
  EXPECT_EQ(stats.connections_total, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.requests_total,
            static_cast<uint64_t>(kThreads) * kRequests);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, AdmissionControlRejectsBeyondInflightCap) {
  ServerOptions options = SmallTpoxOptions();
  options.max_inflight_requests = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client slow = MustConnect(server);
  std::thread holder([&slow] {
    // Occupies the single admission slot for 1000 ms.
    const auto reply = slow.Ping("sleep=1000");
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  WaitForInflight(server, 1);

  Client fast = MustConnect(server);
  const auto rejected = fast.Ping();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  holder.join();

  // Slot free again: the same session is admitted now.
  EXPECT_TRUE(fast.Ping().ok());
  EXPECT_GE(server.GetStats().admission_rejects, 1u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, ConnectionCapRejectsExtraClients) {
  ServerOptions options = SmallTpoxOptions();
  options.max_connections = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client first = MustConnect(server);
  ASSERT_TRUE(first.Ping().ok());

  Client second;
  ASSERT_TRUE(second.Connect(server.host(), server.port()).ok());
  const auto rejected = second.Ping();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The admitted session is unaffected.
  EXPECT_TRUE(first.Ping().ok());
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, GracefulDrainDeliversInFlightResponse) {
  ServerOptions options = SmallTpoxOptions();
  options.drain_timeout_s = 5;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(server);
  Result<std::string> slow = Status::Internal("not run");
  std::thread in_flight([&client, &slow] { slow = client.Ping("sleep=300"); });
  WaitForInflight(server, 1);

  // Stop while the request is executing: drain must let it finish and
  // deliver its response before the session closes.
  EXPECT_TRUE(server.Stop().ok());
  in_flight.join();
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(*slow, "sleep=300");
  EXPECT_FALSE(server.running());

  // And new connections are refused after Stop.
  Client late;
  EXPECT_FALSE(late.Connect(server.host(), server.port(), 0.5).ok());
}

TEST(NetServerTest, DrainTimeoutCancelsStragglers) {
  ServerOptions options = SmallTpoxOptions();
  options.drain_timeout_s = 0.05;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client = MustConnect(server);
  Result<std::string> slow = Status::Internal("not run");
  std::thread in_flight([&client, &slow] { slow = client.Ping("sleep=5000"); });
  WaitForInflight(server, 1);

  const auto begin = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.Stop().ok());
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  // Stop must not wait out the 5 s sleep — the cancel token cuts it.
  EXPECT_LT(stop_seconds, 3.0);

  in_flight.join();
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kCancelled);
}

TEST(NetServerTest, KilledClientMidRequestDoesNotWedgeServer) {
  Server server(SmallTpoxOptions());
  ASSERT_TRUE(server.Start().ok());

  {
    // Send a slow request and vanish without reading the response: the
    // server's response write must turn into EPIPE, not SIGPIPE/hang.
    auto socket = ConnectTcp(server.host(), server.port());
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(socket->SendAll(EncodeFrame(MsgType::kPing, 1, "sleep=200"))
                    .ok());
  }  // socket closed here, request still executing

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client client = MustConnect(server);
  EXPECT_TRUE(client.Ping().ok());

  const auto begin = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          begin)
                .count(),
            3.0);
}

TEST(NetServerTest, MutationsPersistAcrossRestartViaWal) {
  const std::string dir = ScratchDir("persist");
  {
    ServerOptions options = SmallTpoxOptions();
    options.data_dir = dir;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server);
    MutationRequest mutation;
    mutation.statement = kMarkerMutation;
    ASSERT_TRUE(client.Mutate(mutation).ok());
    EXPECT_EQ(MarkerCount(&client), 1u);
    ASSERT_TRUE(server.Stop().ok());  // checkpoints
  }
  {
    // Recover without the demo: the data dir carries the database.
    ServerOptions options;
    options.data_dir = dir;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server);
    EXPECT_EQ(MarkerCount(&client), 1u);
    ASSERT_TRUE(server.Stop().ok());
  }
}

TEST(NetServerTest, CreateIndexOverWireSurvivesRestart) {
  const std::string dir = ScratchDir("create_index");
  {
    ServerOptions options = SmallTpoxOptions();
    options.data_dir = dir;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server);

    CreateIndexRequest offline;
    offline.name = "sym";
    offline.collection = "SDOC";
    offline.pattern = "/Security/Symbol";
    const auto r1 = client.CreateIndex(offline);
    ASSERT_TRUE(r1.ok()) << r1.status();
    EXPECT_GT(r1->entry_count, 0u);
    EXPECT_FALSE(r1->online);

    CreateIndexRequest online;
    online.name = "yld";
    online.collection = "SDOC";
    online.pattern = "/Security/Yield";
    online.value_type = 1;  // numeric
    online.online = true;
    const auto r2 = client.CreateIndex(online);
    ASSERT_TRUE(r2.ok()) << r2.status();
    EXPECT_GT(r2->entry_count, 0u);
    EXPECT_TRUE(r2->online);
    EXPECT_LE(r2->stall_seconds, r2->build_seconds);

    // Duplicates are rejected whichever path built the original.
    EXPECT_EQ(client.CreateIndex(offline).status().code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(client.CreateIndex(online).status().code(),
              StatusCode::kAlreadyExists);

    CreateIndexRequest virt;
    virt.name = "v1";
    virt.collection = "SDOC";
    virt.pattern = "/Security/SecInfo/*/Sector";
    virt.is_virtual = true;
    ASSERT_TRUE(client.CreateIndex(virt).ok());

    ASSERT_TRUE(server.Stop().ok());
  }
  {
    // Both real indexes were WAL-committed (the online one inside its
    // swap section), so recovery rebuilds them; the virtual one is
    // advisor scratch and is gone.
    ServerOptions options;
    options.data_dir = dir;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server);
    for (const char* name : {"sym", "yld"}) {
      CreateIndexRequest again;
      again.name = name;
      again.collection = "SDOC";
      again.pattern = "/Security/Symbol";
      EXPECT_EQ(client.CreateIndex(again).status().code(),
                StatusCode::kAlreadyExists)
          << name;
    }
    CreateIndexRequest virt;
    virt.name = "v1";
    virt.collection = "SDOC";
    virt.pattern = "/Security/SecInfo/*/Sector";
    virt.is_virtual = true;
    EXPECT_TRUE(client.CreateIndex(virt).ok());
    ASSERT_TRUE(server.Stop().ok());
  }
}

TEST(NetServerTest, EphemeralPortsNeverCollide) {
  Server a{ServerOptions()};
  Server b{ServerOptions()};
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
  Client ca = MustConnect(a);
  Client cb = MustConnect(b);
  EXPECT_TRUE(ca.Ping().ok());
  EXPECT_TRUE(cb.Ping().ok());
  EXPECT_TRUE(a.Stop().ok());
  EXPECT_TRUE(b.Stop().ok());
}

// The net points' own fault matrix (fault_matrix_test skips them: its
// advise pipeline never crosses socket code). Client and server share
// this process's fault registry, so an armed point fires on whichever
// side hits it first — either way the failure must surface as a clean,
// attributable Status and the server must keep running.
TEST(NetServerTest, NetFaultPointAcceptIsSurvivable) {
  fault::ScopedFaultDisarm cleanup;
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  fault::FaultRegistry::Global().Arm(fault::points::kNetAccept,
                                     fault::FaultSpec::NthHit(1));
  // The acceptor absorbs the injected failure and keeps listening; the
  // queued connection is picked up on the next loop.
  Client client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  const auto st = fault::FaultRegistry::Global()
                      .GetPoint(fault::points::kNetAccept)
                      ->Snapshot();
  EXPECT_EQ(st.fired, 1u);
  EXPECT_TRUE(server.running());
  EXPECT_TRUE(server.Stop().ok());
}

TEST(NetServerTest, NetFaultPointsReadWriteFailCleanly) {
  for (const char* point :
       {fault::points::kNetRead, fault::points::kNetWrite}) {
    SCOPED_TRACE(point);
    Server server(ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server);
    ASSERT_TRUE(client.Ping().ok());

    {
      fault::ScopedFaultDisarm cleanup;
      fault::FaultRegistry::Global().Arm(point,
                                         fault::FaultSpec::Probability(1));
      const auto reply = client.Ping();
      ASSERT_FALSE(reply.ok());
      // Injected directly ("fault injected: ...") or observed as the
      // peer dropping the session — both are clean failures.
      EXPECT_TRUE(reply.status().code() == StatusCode::kInternal ||
                  reply.status().code() == StatusCode::kUnavailable)
          << reply.status();
    }

    // Disarmed again: the server still accepts fresh sessions.
    Client after = MustConnect(server);
    EXPECT_TRUE(after.Ping().ok());
    EXPECT_TRUE(server.Stop().ok());
  }
}

}  // namespace
}  // namespace xia::net
