#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "engine/query_parser.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "repl/stream.h"
#include "util/atomic_file.h"
#include "util/stopwatch.h"
#include "workload/workload_io.h"
#include "xpath/parser.h"

namespace xia::net {

namespace {

constexpr size_t kRecvChunk = 64 * 1024;
constexpr uint32_t kMaxRows = 10000;
constexpr double kMaxPingSleepMs = 10000;

void Count(const std::string& name, uint64_t delta = 1) {
  if constexpr (obs::kObsEnabled) {
    obs::MetricsRegistry::Global().GetCounter(name)->Add(delta);
  }
}

void GaugeSet(const std::string& name, double value) {
  if constexpr (obs::kObsEnabled) {
    obs::MetricsRegistry::Global().GetGauge(name)->Set(value);
  }
}

void ObserveLatency(const std::string& name, double seconds) {
  if constexpr (obs::kObsEnabled) {
    obs::MetricsRegistry::Global()
        .GetHistogram(name, obs::LatencyBuckets())
        ->Observe(seconds);
  }
}

// Counts one request of `type` in xia.net.requests.<type> and records its
// latency in xia.net.latency.<type>. Each type's two metrics are looked up
// in the registry on its first request and kept, so later requests build
// no name and take no registry lock. The counter is published after the
// histogram, so a thread that sees the counter sees the histogram too.
void RecordRequest(MsgType type, double seconds) {
  if constexpr (obs::kObsEnabled) {
    struct TypeMetrics {
      std::atomic<obs::Counter*> requests{nullptr};
      std::atomic<obs::Histogram*> latency{nullptr};
    };
    static TypeMetrics by_type[256];
    TypeMetrics& metrics = by_type[static_cast<uint8_t>(type)];
    obs::Counter* requests = metrics.requests.load(std::memory_order_acquire);
    obs::Histogram* latency = metrics.latency.load(std::memory_order_relaxed);
    if (requests == nullptr) {
      // Racing first requests get the same pointers from the registry.
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      const std::string name = MsgTypeName(type);
      latency = registry.GetHistogram("xia.net.latency." + name,
                                      obs::LatencyBuckets());
      requests = registry.GetCounter("xia.net.requests." + name);
      metrics.latency.store(latency, std::memory_order_relaxed);
      metrics.requests.store(requests, std::memory_order_release);
    }
    requests->Add(1);
    latency->Observe(seconds);
  }
}

ExecReply ToExecReply(const engine::ExecResult& result) {
  ExecReply reply;
  reply.result_count = result.result_count;
  reply.docs_examined = result.docs_examined;
  reply.index_entries_scanned = result.index_entries_scanned;
  reply.wall_seconds = result.wall_seconds;
  reply.rows = result.rows;
  return reply;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      max_inflight_(options_.max_inflight_requests > 0
                        ? options_.max_inflight_requests
                        : options_.max_connections),
      db_(DatabaseOptions{options_.data_dir, options_.fsync_policy,
                          options_.repl_test_hook}),
      repl_hub_(options_.follower_ttl_s) {}

Server::~Server() {
  if (running_.load(std::memory_order_acquire)) (void)Stop();
}

Status Server::InitDatabase() {
  if (options_.is_follower() && options_.data_dir.empty()) {
    return Status::InvalidArgument(
        "a follower needs a data_dir: its local WAL is what makes "
        "rejoin crash-safe");
  }
  XIA_RETURN_IF_ERROR(db_.Open());
  // A follower never seeds demo data: everything it holds must come
  // from the leader, or its LSN space would conflict with the stream.
  if (options_.demo.empty() || options_.is_follower() ||
      !db_.store().CollectionNames().empty()) {
    return Status::OK();
  }
  if (options_.demo != "tpox" && options_.demo != "xmark") {
    return Status::InvalidArgument("unknown demo database: " + options_.demo);
  }
  return db_.BulkLoad([&](storage::DocumentStore* store,
                          storage::StatisticsCatalog* statistics) {
    return options_.demo == "tpox"
               ? tpox::BuildTpoxDatabase(options_.demo_tpox_scale, store,
                                         statistics)
               : tpox::BuildXmarkDatabase(options_.demo_xmark_scale, store,
                                          statistics);
  });
}

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  XIA_RETURN_IF_ERROR(InitDatabase());
  XIA_RETURN_IF_ERROR(listener_.Listen(options_.host, options_.port));
  db_.capture().set_enabled(true);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&Server::AcceptLoop, this);
  if (!options_.metrics_json_path.empty()) {
    metrics_dumper_ = std::thread(&Server::MetricsDumpLoop, this);
  }
  if (options_.is_follower()) {
    std::lock_guard<std::mutex> lock(role_mu_);
    leader_host_ = options_.follow_host;
    leader_port_ = options_.follow_port;
    follower_mode_.store(true, std::memory_order_release);
    StartApplierLocked();
  }
  return Status::OK();
}

void Server::StartApplierLocked() {
  repl::ApplierOptions applier_options;
  applier_options.leader_host = leader_host_;
  applier_options.leader_port = leader_port_;
  applier_options.follower_id = options_.follower_id;
  applier_options.checkpoint_every_records = options_.repl_checkpoint_every;
  applier_options.test_hook = options_.repl_test_hook;
  applier_ =
      std::make_unique<repl::Applier>(std::move(applier_options), &db_);
  applier_->Start();
}

void Server::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kCancelled) return;
      // Transient (or injected) accept failure: count it and keep
      // serving; the small sleep bounds a p=1 injected-fault spin.
      Count("xia.net.accept_errors");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    std::lock_guard<std::mutex> lock(sessions_mu_);
    ReapSessionsLocked();
    if (stopping_.load(std::memory_order_acquire)) return;
    if (open_sessions_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      Count("xia.net.admission_rejects");
      const ErrorReply reject{StatusCode::kResourceExhausted,
                              "too many connections", ""};
      (void)accepted->SendAll(
          EncodeFrame(MsgType::kError, 0, EncodeErrorReply(reject)));
      continue;  // accepted socket closes on scope exit
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_++;
    session->socket = std::move(*accepted);
    Session* raw = session.get();
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    open_sessions_.fetch_add(1, std::memory_order_relaxed);
    Count("xia.net.connections_total");
    GaugeSet("xia.net.open_sessions",
             static_cast<double>(open_sessions_.load()));
    session->thread = std::thread(&Server::SessionLoop, this, raw);
    sessions_.push_back(std::move(session));
  }
}

void Server::ReapSessionsLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::SessionLoop(Session* session) {
  FrameReader reader;
  char buf[kRecvChunk];
  bool drop = false;
  while (!drop) {
    // Drain every complete frame already buffered before reading more.
    for (;;) {
      Frame frame;
      std::string parse_error;
      const FrameReader::Next next = reader.Poll(&frame, &parse_error);
      if (next == FrameReader::Next::kNeedMore) break;
      if (next == FrameReader::Next::kBad) {
        // Corrupt framing: we cannot trust byte boundaries any more, so
        // answer one attributable error frame and drop the session.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Count("xia.net.protocol_errors");
        const ErrorReply err{StatusCode::kParseError,
                             "protocol error: " + parse_error, ""};
        (void)session->socket.SendAll(
            EncodeFrame(MsgType::kError, 0, EncodeErrorReply(err)));
        drop = true;
        break;
      }
      if (frame.type == MsgType::kReplSubscribe) {
        // The one request that does not get a single reply: the session
        // becomes a one-way replication stream until disconnect/stop
        // (in_request stays false — drain must not wait on a stream).
        const std::string rejected = HandleReplSubscribe(session, frame);
        if (!rejected.empty()) (void)session->socket.SendAll(rejected);
        drop = true;
        break;
      }
      const std::string response = HandleFrame(session, frame);
      if (!session->socket.SendAll(response).ok()) {
        // Peer died mid-response (EPIPE, not SIGPIPE): just drop.
        drop = true;
        break;
      }
      Count("xia.net.bytes_written", response.size());
    }
    if (drop) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    const Result<size_t> got = session->socket.Recv(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    Count("xia.net.bytes_read", *got);
    reader.Feed(std::string_view(buf, *got));
  }
  session->socket.Close();
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  GaugeSet("xia.net.open_sessions",
           static_cast<double>(open_sessions_.load()));
  session->done.store(true, std::memory_order_release);
}

std::string Server::HandleFrame(Session* session, const Frame& frame) {
  const uint8_t raw_type = static_cast<uint8_t>(frame.type);
  if (!IsRequestType(raw_type)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Count("xia.net.protocol_errors");
    const ErrorReply err{StatusCode::kInvalidArgument,
                         "frame type is not a request", ""};
    return EncodeFrame(MsgType::kError, frame.request_id,
                       EncodeErrorReply(err));
  }

  // Admission: bound the number of concurrently executing requests; the
  // rest get a clean kResourceExhausted instead of an unbounded queue.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >= max_inflight_) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    Count("xia.net.admission_rejects");
    const ErrorReply err{StatusCode::kResourceExhausted,
                         "too many in-flight requests", ""};
    return EncodeFrame(MsgType::kError, frame.request_id,
                       EncodeErrorReply(err));
  }
  session->in_request.store(true, std::memory_order_release);
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  GaugeSet("xia.net.inflight_requests",
           static_cast<double>(inflight_.load()));

  Stopwatch timer;
  Result<std::string> payload = Status::Internal("unhandled request type");
  switch (frame.type) {
    case MsgType::kPing:
      payload = HandlePing(session, frame, MakeDeadline(0));
      break;
    case MsgType::kQuery:
      payload = HandleQuery(session, frame);
      break;
    case MsgType::kMutation:
      payload = HandleMutation(session, frame);
      break;
    case MsgType::kAdvise:
      payload = HandleAdvise(session, frame);
      break;
    case MsgType::kExplain:
      payload = HandleExplain(session, frame);
      break;
    case MsgType::kMetrics:
      payload = HandleMetrics(frame);
      break;
    case MsgType::kReplStatus:
      payload = HandleReplStatus(frame);
      break;
    case MsgType::kPromote:
      payload = HandlePromote(frame);
      break;
    case MsgType::kFollow:
      payload = HandleFollow(frame);
      break;
    case MsgType::kCreateIndex:
      payload = HandleCreateIndex(frame);
      break;
    default:
      break;
  }
  RecordRequest(frame.type, timer.ElapsedSeconds());

  session->in_request.store(false, std::memory_order_release);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  GaugeSet("xia.net.inflight_requests",
           static_cast<double>(inflight_.load()));

  if (!payload.ok()) {
    Count("xia.net.request_errors");
    ErrorReply err{payload.status().code(), payload.status().message(), {}};
    // Write rejections carry where the leader is, so clients can
    // redirect instead of guessing.
    if (err.code == StatusCode::kReadOnly ||
        err.code == StatusCode::kFenced) {
      err.leader_endpoint = LeaderEndpointHint();
    }
    return EncodeFrame(MsgType::kError, frame.request_id,
                       EncodeErrorReply(err));
  }
  return EncodeFrame(MsgType::kReply, frame.request_id, *payload);
}

std::string Server::LeaderEndpointHint() const {
  if (!follower_mode_.load(std::memory_order_acquire)) {
    // We are the leader (as far as we know).
    return options_.host + ":" + std::to_string(port());
  }
  std::lock_guard<std::mutex> lock(role_mu_);
  if (leader_host_.empty() || leader_port_ == 0) return std::string();
  return leader_host_ + ":" + std::to_string(leader_port_);
}

std::string Server::HandleReplSubscribe(Session* session,
                                        const Frame& frame) {
  const auto reject = [&](const Status& status) {
    Count("xia.net.request_errors");
    const ErrorReply err{status.code(), status.message(), ""};
    return EncodeFrame(MsgType::kError, frame.request_id,
                       EncodeErrorReply(err));
  };
  if (follower_mode_.load(std::memory_order_acquire)) {
    // No cascading replication: a replica's WAL is a copy, not a source.
    return reject(Status::ReadOnly(
        "follower cannot serve replication subscriptions"));
  }
  if (!db_.wal()) {
    return reject(Status::FailedPrecondition(
        "replication requires a durable data dir"));
  }
  const Result<ReplSubscribeRequest> subscribe =
      DecodeReplSubscribeRequest(frame.payload);
  if (!subscribe.ok()) return reject(subscribe.status());

  Count("xia.net.requests.repl_subscribe");
  repl::StreamContext ctx;
  ctx.db = &db_;
  ctx.hub = &repl_hub_;
  ctx.stopping = &stopping_;
  ctx.demoted = &follower_mode_;
  ctx.test_hook = options_.repl_test_hook;
  const Status ended =
      repl::RunReplStream(&session->socket, *subscribe, ctx);
  if (!ended.ok()) Count("xia.repl.stream_errors");
  return std::string();
}

fault::Deadline Server::MakeDeadline(double budget_ms) const {
  const double ms =
      budget_ms > 0 ? budget_ms : options_.default_budget_ms;
  return ms > 0 ? fault::Deadline::AfterMillis(ms)
                : fault::Deadline::Infinite();
}

Result<std::string> Server::HandlePing(Session* session, const Frame& frame,
                                       const fault::Deadline& deadline) {
  // "sleep=MS" holds the request open (polling cancel/deadline) — the
  // deterministic in-flight request that drain and admission tests need.
  constexpr std::string_view kSleepPrefix = "sleep=";
  const std::string& body = frame.payload;
  if (body.compare(0, kSleepPrefix.size(), kSleepPrefix) == 0) {
    double ms = 0;
    try {
      ms = std::stod(body.substr(kSleepPrefix.size()));
    } catch (...) {
      return Status::InvalidArgument("bad ping sleep payload: " + body);
    }
    ms = std::min(std::max(ms, 0.0), kMaxPingSleepMs);
    Stopwatch timer;
    while (timer.ElapsedMillis() < ms) {
      XIA_RETURN_IF_ERROR(fault::CheckInterrupt(deadline, &session->cancel));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return body;  // echo
}

Result<std::string> Server::HandleQuery(Session* session, const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const QueryRequest req,
                       DecodeQueryRequest(frame.payload));
  RunOptions run;
  run.deadline = MakeDeadline(req.budget_ms);
  XIA_ASSIGN_OR_RETURN(const engine::Statement stmt,
                       engine::ParseStatement(req.statement));
  if (!stmt.is_query()) {
    return Status::InvalidArgument(
        "not a read-only statement; use a mutation request");
  }
  run.materialize_rows = req.materialize_rows;
  run.max_rows = std::min(req.max_rows, kMaxRows);
  run.cancel = &session->cancel;
  XIA_ASSIGN_OR_RETURN(const RunResult result, db_.Run(stmt, run));
  return EncodeExecReply(ToExecReply(result.exec));
}

Result<std::string> Server::HandleMutation(Session* session,
                                           const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const MutationRequest req,
                       DecodeMutationRequest(frame.payload));
  RunOptions run;
  run.deadline = MakeDeadline(req.budget_ms);
  XIA_ASSIGN_OR_RETURN(const engine::Statement stmt,
                       engine::ParseStatement(req.statement));
  if (stmt.is_query()) {
    return Status::InvalidArgument(
        "read-only statement; use a query request");
  }
  if (follower_mode_.load(std::memory_order_acquire)) {
    return Status::ReadOnly(
        "this node is a read replica; send mutations to the leader");
  }
  run.cancel = &session->cancel;
  run.expected_epoch = req.expected_epoch;
  XIA_ASSIGN_OR_RETURN(const RunResult result, db_.Run(stmt, run));

  // Quorum commit (DESIGN §15): Run captured this mutation's LSN under
  // the exclusive lock and released it; now wait on the hub for K
  // follower acks — the wait must not block other requests. A timeout
  // fails the request loudly (kUnavailable) instead of silently
  // downgrading to async: the mutation IS durable locally and WILL
  // reach followers, but the client was promised K-replicated.
  if (options_.sync_replicas > 0 && db_.wal() &&
      !follower_mode_.load(std::memory_order_acquire)) {
    const uint64_t lsn = result.lsn;
    if (options_.repl_test_hook) {
      options_.repl_test_hook("repl.quorum.before_wait");
    }
    XIA_FAULT_INJECT(fault::points::kReplQuorumWait);
    Stopwatch quorum_timer;
    const bool satisfied = repl_hub_.WaitForQuorum(
        lsn, options_.sync_replicas, options_.quorum_timeout_ms / 1000.0);
    ObserveLatency("xia.repl.quorum.wait_seconds",
                   quorum_timer.ElapsedSeconds());
    if (!satisfied) {
      Count("xia.repl.quorum.timeouts");
      return Status::Unavailable(
          "mutation committed locally (lsn " + std::to_string(lsn) +
          ") but only " + std::to_string(repl_hub_.CountAcked(lsn)) +
          " of " + std::to_string(options_.sync_replicas) +
          " required replica acks arrived within " +
          std::to_string(options_.quorum_timeout_ms) + " ms");
    }
    Count("xia.repl.quorum.satisfied");
    if (options_.repl_test_hook) {
      options_.repl_test_hook("repl.quorum.after_ack");
    }
  }
  return EncodeExecReply(ToExecReply(result.exec));
}

Result<std::string> Server::HandleCreateIndex(const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const CreateIndexRequest req,
                       DecodeCreateIndexRequest(frame.payload));
  if (follower_mode_.load(std::memory_order_acquire)) {
    return Status::ReadOnly(
        "this node is a read replica; send DDL to the leader");
  }
  XIA_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePattern(req.pattern));
  engine::CreateIndexSpec spec{
      req.name, req.collection,
      xpath::IndexPattern{std::move(path),
                          static_cast<xpath::ValueType>(req.value_type)},
      req.is_virtual, req.online};
  spec.pattern.structural = req.structural;
  XIA_ASSIGN_OR_RETURN(const IndexBuildResult built, db_.CreateIndex(spec));
  CreateIndexReply reply;
  reply.entry_count = built.stats.entry_count;
  reply.size_bytes = built.stats.size_bytes;
  reply.build_seconds = built.build_seconds;
  if (req.online && !req.is_virtual) {
    reply.online = true;
    reply.stall_seconds = built.online.exclusive_seconds;
    reply.delta_ops = built.online.delta_ops_applied;
  }
  return EncodeCreateIndexReply(reply);
}

Result<std::string> Server::HandleAdvise(Session* session, const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const AdviseRequest req,
                       DecodeAdviseRequest(frame.payload));
  advisor::AdvisorOptions options;
  if (!req.algorithm.empty()) {
    XIA_ASSIGN_OR_RETURN(options.algorithm,
                         advisor::ParseSearchAlgorithm(req.algorithm));
  }
  if (req.disk_budget_bytes <= 0) {
    return Status::InvalidArgument("disk budget must be positive");
  }
  options.disk_budget_bytes = static_cast<double>(req.disk_budget_bytes);
  options.budget_ms = req.budget_ms > 0 ? req.budget_ms
                                        : options_.default_budget_ms;
  options.cancel = &session->cancel;

  engine::Workload workload;
  if (req.workload_text.empty()) {
    // Advise on the captured workload: fold the pending capture batch
    // into the templatizer (leaf lock) and advise on the templates.
    std::lock_guard<std::mutex> tlock(tmpl_mu_);
    templates_.AddBatch(db_.capture().Drain());
    if (templates_.empty()) {
      return Status::FailedPrecondition(
          "no captured workload yet; send statements or a workload text");
    }
    workload = templates_.ToWorkload();
  } else {
    XIA_ASSIGN_OR_RETURN(workload,
                         workload::DeserializeWorkload(req.workload_text));
  }

  XIA_ASSIGN_OR_RETURN(const advisor::Recommendation rec,
                       db_.Advise(workload, options));
  AdviseReply reply;
  reply.total_size_bytes = static_cast<uint64_t>(rec.total_size_bytes);
  reply.est_speedup = rec.est_speedup;
  reply.optimizer_calls = rec.optimizer_calls;
  reply.partial = rec.partial;
  for (const advisor::RecommendedIndex& index : rec.indexes) {
    reply.indexes.push_back(
        AdviseReplyIndex{index.ddl, index.size_bytes, index.is_general});
  }
  return EncodeAdviseReply(reply);
}

Result<std::string> Server::HandleExplain(Session* session,
                                          const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const ExplainRequest req,
                       DecodeExplainRequest(frame.payload));
  engine::ExecOptions exec;
  exec.deadline = MakeDeadline(req.budget_ms);
  XIA_ASSIGN_OR_RETURN(const engine::Statement stmt,
                       engine::ParseStatement(req.statement));
  // EXPLAIN ANALYZE of a mutation executes it: a mutation for read-only
  // purposes.
  if (req.analyze && stmt.is_modification() &&
      follower_mode_.load(std::memory_order_acquire)) {
    return Status::ReadOnly(
        "EXPLAIN ANALYZE of a mutation executes it; this node is a "
        "read replica");
  }
  exec.cancel = &session->cancel;
  XIA_ASSIGN_OR_RETURN(std::string text,
                       db_.Explain(stmt, req.analyze, exec));
  return EncodeTextReply(TextReply{std::move(text)});
}

Result<std::string> Server::HandleMetrics(const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const MetricsRequest req,
                       DecodeMetricsRequest(frame.payload));
  UpdateServerGauges();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  std::string text;
  switch (req.format) {
    case MetricsFormat::kJson:
      text = snapshot.ToJson();
      break;
    case MetricsFormat::kPrometheus:
      text = snapshot.ToPrometheus();
      break;
    case MetricsFormat::kTable:
      text = snapshot.ToTable();
      break;
  }
  return EncodeTextReply(TextReply{text});
}

Result<std::string> Server::HandleReplStatus(const Frame& frame) {
  XIA_RETURN_IF_ERROR(DecodeReplStatusRequest(frame.payload).status());
  const ReplStatus status = GetReplStatus();
  ReplStatusReply reply;
  reply.role = status.is_follower ? "follower" : "leader";
  reply.repl_epoch = status.repl_epoch;
  reply.epoch_start_lsn = status.epoch_start_lsn;
  reply.durable_lsn = status.durable_lsn;
  reply.checkpoint_lsn = status.checkpoint_lsn;
  reply.leader_endpoint = LeaderEndpointHint();
  if (status.is_follower) {
    reply.applied_lsn = status.applier.applied_lsn;
  } else {
    for (const repl::FollowerInfo& info : status.followers) {
      reply.followers.push_back(
          ReplStatusFollower{info.follower_id, "", info.acked_lsn,
                             info.streaming});
    }
  }
  return EncodeReplStatusReply(reply);
}

Result<std::string> Server::HandlePromote(const Frame& frame) {
  XIA_RETURN_IF_ERROR(DecodePromoteRequest(frame.payload).status());
  PromoteReply reply;
  XIA_RETURN_IF_ERROR(Promote(&reply.epoch, &reply.barrier_lsn));
  return EncodePromoteReply(reply);
}

Result<std::string> Server::HandleFollow(const Frame& frame) {
  XIA_ASSIGN_OR_RETURN(const FollowRequest req,
                       DecodeFollowRequest(frame.payload));
  XIA_RETURN_IF_ERROR(Follow(req.host, req.port));
  return EncodeTextReply(
      TextReply{"following " + req.host + ":" + std::to_string(req.port)});
}

Status Server::Promote(uint64_t* epoch, uint64_t* barrier_lsn) {
  if (!db_.wal()) {
    return Status::FailedPrecondition(
        "promotion requires a durable data dir");
  }
  XIA_FAULT_INJECT(fault::points::kReplPromote);
  std::lock_guard<std::mutex> role_lock(role_mu_);
  if (!follower_mode_.load(std::memory_order_acquire)) {
    // Already the leader: report the current epoch, do not bump again
    // (a promote retried after a timeout must not burn an epoch).
    *epoch = db_.repl_epoch();
    *barrier_lsn = db_.wal()->epoch_start_lsn();
    return Status::OK();
  }
  // Quiesce the applier before touching the log: it takes the exclusive
  // db lock per record and must not apply anything past our barrier.
  if (applier_) {
    applier_->Stop();
    applier_.reset();
  }
  XIA_ASSIGN_OR_RETURN(*barrier_lsn, db_.BumpEpoch());
  *epoch = db_.repl_epoch();
  leader_host_.clear();
  leader_port_ = 0;
  follower_mode_.store(false, std::memory_order_release);
  Count("xia.repl.promotions");
  return Status::OK();
}

Status Server::Follow(const std::string& host, uint16_t port) {
  if (!db_.wal()) {
    return Status::FailedPrecondition(
        "a follower needs a data_dir: its local WAL is what makes "
        "rejoin crash-safe");
  }
  std::lock_guard<std::mutex> role_lock(role_mu_);
  // Demote FIRST: in-flight leader streams see the flag and fence off,
  // and new mutations are rejected, before the applier starts pulling.
  follower_mode_.store(true, std::memory_order_release);
  if (applier_) {
    applier_->Stop();
    applier_.reset();
  }
  leader_host_ = host;
  leader_port_ = port;
  StartApplierLocked();
  Count("xia.repl.follows");
  return Status::OK();
}

void Server::UpdateServerGauges() {
  GaugeSet("xia.net.open_sessions",
           static_cast<double>(open_sessions_.load()));
  GaugeSet("xia.net.inflight_requests",
           static_cast<double>(inflight_.load()));
}

void Server::MetricsDumpLoop() {
  std::unique_lock<std::mutex> lock(metrics_mu_);
  const auto interval = std::chrono::duration<double>(
      options_.metrics_interval_s > 0 ? options_.metrics_interval_s : 1.0);
  for (;;) {
    const bool stop =
        metrics_cv_.wait_for(lock, interval, [&] { return metrics_stop_; });
    UpdateServerGauges();
    (void)WriteFileAtomic(
        options_.metrics_json_path,
        obs::MetricsRegistry::Global().Snapshot().ToJson());
    if (stop) return;  // final dump written above
  }
}

Status Server::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false,
                                        std::memory_order_acq_rel)) {
    return Status::OK();  // already stopped
  }
  stopping_.store(true, std::memory_order_release);

  // 0. Stop the follower applier first: it takes the exclusive db lock
  //    per applied record and must be quiesced before the final
  //    checkpoint below.
  {
    std::lock_guard<std::mutex> lock(role_mu_);
    if (applier_) applier_->Stop();
  }

  // 1. Refuse new connections.
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // 2. Half-close every session's read side: idle sessions wake from
  //    recv with EOF and exit; in-request sessions still own their write
  //    side, finish, send their response, then see the EOF.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) session->socket.ShutdownRead();
  }

  // 3. Drain within the timeout, then cancel stragglers cooperatively.
  const fault::Deadline drain =
      options_.drain_timeout_s > 0
          ? fault::Deadline::AfterSeconds(options_.drain_timeout_s)
          : fault::Deadline::Infinite();
  for (;;) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) busy = true;
      }
    }
    if (!busy) break;
    if (drain.expired()) {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& session : sessions_) session->cancel.Cancel();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->thread.joinable()) session->thread.join();
    }
    sessions_.clear();
  }

  // 4. Stop the metrics dumper (it writes one final snapshot).
  if (metrics_dumper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      metrics_stop_ = true;
    }
    metrics_cv_.notify_all();
    metrics_dumper_.join();
  }

  // 5. Checkpoint and close the WAL so restart recovery is instant.
  const Status result = db_.Close();
  db_.capture().set_enabled(false);
  return result;
}

ReplStatus Server::GetReplStatus() const {
  ReplStatus status;
  status.is_follower = follower_mode_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(role_mu_);
    if (applier_) status.applier = applier_->GetStats();
  }
  status.followers = repl_hub_.Snapshot();
  if (db_.wal()) {
    const wal::WalStatus wal_status = db_.wal()->GetStatus();
    status.durable_lsn = wal_status.durable_lsn;
    status.checkpoint_lsn = wal_status.checkpoint_lsn;
    status.repl_epoch = wal_status.repl_epoch;
    status.epoch_start_lsn = wal_status.epoch_start_lsn;
  }
  return status;
}

Result<std::string> Server::StoreDigest() { return db_.Digest(); }

Status Server::CheckpointNow() { return db_.Checkpoint(); }

ServerStats Server::GetStats() const {
  ServerStats stats;
  stats.connections_total = connections_total_.load(std::memory_order_relaxed);
  stats.requests_total = requests_total_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.admission_rejects =
      admission_rejects_.load(std::memory_order_relaxed);
  stats.open_sessions = open_sessions_.load(std::memory_order_relaxed);
  stats.inflight_requests = inflight_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace xia::net
