#include "request_path.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "engine/query_parser.h"
#include "optimizer/optimizer.h"
#include "workload/workload_io.h"

namespace xia::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// net::Server's cap on materialized rows per reply.
constexpr uint32_t kMaxRows = 10000;

// The session's cancel token, which nothing here ever cancels.
const fault::CancelToken kSessionCancel;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Charges the time since the previous lap to one LayerClock field. A
// null clock makes every call a no-op, so the untimed run reads no clock.
class Laps {
 public:
  explicit Laps(LayerClock* clock) : clock_(clock) {
    if (clock_ != nullptr) last_ = Clock::now();
  }
  void To(double LayerClock::*field) {
    if (clock_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    clock_->*field += Seconds(last_, now);
    last_ = now;
  }

 private:
  LayerClock* clock_;
  Clock::time_point last_;
};

// FrameReader over one complete buffer, as a session or client reads it.
Result<net::Frame> ReadFrame(std::string_view wire) {
  net::FrameReader reader;
  reader.Feed(wire);
  net::Frame frame;
  std::string error;
  if (reader.Poll(&frame, &error) != net::FrameReader::Next::kFrame) {
    return Status::ParseError("bad frame: " + error);
  }
  return frame;
}

// net::Server::HandleFrame's reply framing.
std::string Respond(uint64_t request_id, const Result<std::string>& payload) {
  if (!payload.ok()) {
    const net::ErrorReply err{payload.status().code(),
                              payload.status().message(), {}};
    return net::EncodeFrame(net::MsgType::kError, request_id,
                            net::EncodeErrorReply(err));
  }
  return net::EncodeFrame(net::MsgType::kReply, request_id, *payload);
}

// net::Client::Call's reply handling.
Result<std::string> ClientPayload(std::string_view wire, uint64_t request_id) {
  XIA_ASSIGN_OR_RETURN(const net::Frame frame, ReadFrame(wire));
  if (frame.request_id != request_id) {
    return Status::Internal("response for wrong request id");
  }
  if (frame.type == net::MsgType::kError) {
    XIA_ASSIGN_OR_RETURN(const net::ErrorReply error,
                         net::DecodeErrorReply(frame.payload));
    return net::ErrorReplyToStatus(error);
  }
  if (frame.type != net::MsgType::kReply) {
    return Status::Internal("unexpected response frame type");
  }
  return frame.payload;
}

net::ExecReply MakeReply(const engine::ExecResult& result) {
  net::ExecReply reply;
  reply.result_count = result.result_count;
  reply.docs_examined = result.docs_examined;
  reply.index_entries_scanned = result.index_entries_scanned;
  reply.wall_seconds = result.wall_seconds;
  return reply;
}

// net::Server::HandleQuery.
Result<std::string> HandleQuery(Database* db, const net::Frame& frame,
                                const fault::CancelToken* cancel,
                                Laps* laps) {
  XIA_ASSIGN_OR_RETURN(const net::QueryRequest req,
                       net::DecodeQueryRequest(frame.payload));
  laps->To(&LayerClock::codec);
  XIA_ASSIGN_OR_RETURN(const engine::Statement stmt,
                       engine::ParseStatement(req.statement));
  if (!stmt.is_query()) {
    return Status::InvalidArgument(
        "not a read-only statement; use a mutation request");
  }
  laps->To(&LayerClock::parse);
  std::shared_lock<std::shared_mutex> lock(db->mu);
  const optimizer::Optimizer optimizer(&db->store, &db->catalog,
                                       &db->statistics,
                                       optimizer::Optimizer::Options());
  XIA_ASSIGN_OR_RETURN(const optimizer::Plan plan, optimizer.Optimize(stmt));
  laps->To(&LayerClock::plan);
  engine::ExecOptions exec;
  exec.materialize_rows = req.materialize_rows;
  exec.max_rows = std::min(req.max_rows, kMaxRows);
  exec.cancel = cancel;
  XIA_ASSIGN_OR_RETURN(const engine::ExecResult result,
                       db->executor.Execute(stmt, plan, exec));
  laps->To(&LayerClock::execute);
  net::ExecReply reply = MakeReply(result);
  reply.rows = result.rows;
  return net::EncodeExecReply(reply);
}

// net::Server::HandleMutation, leader side without replicas.
Result<std::string> HandleMutation(Database* db, const net::Frame& frame,
                                   const fault::CancelToken* cancel,
                                   Laps* laps) {
  XIA_ASSIGN_OR_RETURN(const net::MutationRequest req,
                       net::DecodeMutationRequest(frame.payload));
  laps->To(&LayerClock::codec);
  XIA_ASSIGN_OR_RETURN(const engine::Statement stmt,
                       engine::ParseStatement(req.statement));
  if (stmt.is_query()) {
    return Status::InvalidArgument("read-only statement; use a query request");
  }
  laps->To(&LayerClock::parse);
  std::unique_lock<std::shared_mutex> lock(db->mu);
  const optimizer::Optimizer optimizer(&db->store, &db->catalog,
                                       &db->statistics,
                                       optimizer::Optimizer::Options());
  XIA_ASSIGN_OR_RETURN(const optimizer::Plan plan, optimizer.Optimize(stmt));
  laps->To(&LayerClock::plan);
  engine::ExecOptions exec;
  exec.cancel = cancel;
  XIA_ASSIGN_OR_RETURN(const engine::ExecResult result,
                       db->executor.Execute(stmt, plan, exec));
  laps->To(&LayerClock::execute);
  return net::EncodeExecReply(MakeReply(result));
}

// net::Server's algorithm names, for the two the sweep uses.
Result<advisor::SearchAlgorithm> ParseAlgorithm(const std::string& name) {
  if (name.empty() || name == "topdown-full") {
    return advisor::SearchAlgorithm::kTopDownFull;
  }
  if (name == "heuristics") {
    return advisor::SearchAlgorithm::kGreedyWithHeuristics;
  }
  return Status::InvalidArgument("unknown advise algorithm: " + name);
}

// net::Server::HandleAdvise with a workload text and the server's default
// of one advise thread.
Result<std::string> HandleAdvise(Database* db, const net::Frame& frame,
                                 const fault::CancelToken* cancel, Laps* laps,
                                 advisor::Recommendation* rec) {
  XIA_ASSIGN_OR_RETURN(const net::AdviseRequest req,
                       net::DecodeAdviseRequest(frame.payload));
  laps->To(&LayerClock::codec);
  advisor::AdvisorOptions options;
  XIA_ASSIGN_OR_RETURN(options.algorithm, ParseAlgorithm(req.algorithm));
  if (req.disk_budget_bytes <= 0) {
    return Status::InvalidArgument("disk budget must be positive");
  }
  options.disk_budget_bytes = static_cast<double>(req.disk_budget_bytes);
  options.budget_ms = req.budget_ms;
  options.cancel = cancel;
  options.threads = req.threads > 0 ? req.threads : 1;
  XIA_ASSIGN_OR_RETURN(const engine::Workload workload,
                       workload::DeserializeWorkload(req.workload_text));
  laps->To(&LayerClock::parse);
  std::shared_lock<std::shared_mutex> lock(db->mu);
  advisor::IndexAdvisor advisor(&db->store, &db->statistics);
  XIA_ASSIGN_OR_RETURN(*rec, advisor.Recommend(workload, options));
  laps->To(&LayerClock::advise);
  net::AdviseReply reply;
  reply.total_size_bytes = static_cast<uint64_t>(rec->total_size_bytes);
  reply.est_speedup = rec->est_speedup;
  reply.optimizer_calls = rec->optimizer_calls;
  reply.partial = rec->partial;
  for (const advisor::RecommendedIndex& index : rec->indexes) {
    reply.indexes.push_back(
        net::AdviseReplyIndex{index.ddl, index.size_bytes, index.is_general});
  }
  return net::EncodeAdviseReply(reply);
}

}  // namespace

Status TimedCommitLog::OnCommit(const engine::Statement& statement) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->OnCommit(statement);
  clock_->wal += Seconds(start, Clock::now());
  return status;
}

void TimedSink::OnExecuted(const engine::Statement& statement,
                           const engine::ExecResult& result) {
  const Clock::time_point start = Clock::now();
  inner_->OnExecuted(statement, result);
  clock_->capture += Seconds(start, Clock::now());
}

Status Database::OpenWal(const std::string& wal_dir) {
  wal::WalManagerOptions options;
  options.writer.policy = wal::FsyncPolicy::kOff;
  wal = std::make_unique<wal::WalManager>(wal_dir, options);
  XIA_RETURN_IF_ERROR(wal->Open(&store, &catalog, &statistics).status());
  capture.set_enabled(true);
  SetTracing(nullptr);
  return Status::OK();
}

void Database::SetTracing(LayerClock* clock) {
  if (clock == nullptr) {
    executor.set_commit_log(wal.get());
    executor.set_sink(&capture);
    return;
  }
  timed_log_ = std::make_unique<TimedCommitLog>(wal.get(), clock);
  timed_sink_ = std::make_unique<TimedSink>(&capture, clock);
  executor.set_commit_log(timed_log_.get());
  executor.set_sink(timed_sink_.get());
}

Result<net::ExecReply> RunStatement(Database* db, const std::string& text,
                                    bool is_query, bool materialize_rows,
                                    uint64_t request_id, LayerClock* clock) {
  Laps laps(clock);
  std::string request_wire;
  if (is_query) {
    net::QueryRequest req;
    req.statement = text;
    req.materialize_rows = materialize_rows;
    request_wire = net::EncodeFrame(net::MsgType::kQuery, request_id,
                                    net::EncodeQueryRequest(req));
  } else {
    net::MutationRequest req;
    req.statement = text;
    request_wire = net::EncodeFrame(net::MsgType::kMutation, request_id,
                                    net::EncodeMutationRequest(req));
  }

  XIA_ASSIGN_OR_RETURN(const net::Frame frame, ReadFrame(request_wire));
  const Result<std::string> payload =
      frame.type == net::MsgType::kQuery
          ? HandleQuery(db, frame, &kSessionCancel, &laps)
          : HandleMutation(db, frame, &kSessionCancel, &laps);
  const std::string reply_wire = Respond(frame.request_id, payload);

  XIA_ASSIGN_OR_RETURN(const std::string reply,
                       ClientPayload(reply_wire, request_id));
  Result<net::ExecReply> decoded = net::DecodeExecReply(reply);
  laps.To(&LayerClock::codec);
  return decoded;
}

Result<AdviseOutcome> RunAdvise(Database* db, const std::string& workload_text,
                                const std::string& algorithm,
                                double disk_budget_bytes, uint64_t request_id,
                                LayerClock* clock) {
  Laps laps(clock);
  net::AdviseRequest req;
  req.workload_text = workload_text;
  req.algorithm = algorithm;
  req.disk_budget_bytes = disk_budget_bytes;
  const std::string request_wire = net::EncodeFrame(
      net::MsgType::kAdvise, request_id, net::EncodeAdviseRequest(req));

  AdviseOutcome outcome;
  XIA_ASSIGN_OR_RETURN(const net::Frame frame, ReadFrame(request_wire));
  const std::string reply_wire =
      Respond(frame.request_id, HandleAdvise(db, frame, &kSessionCancel,
                                             &laps, &outcome.recommendation));

  XIA_ASSIGN_OR_RETURN(const std::string reply,
                       ClientPayload(reply_wire, request_id));
  XIA_ASSIGN_OR_RETURN(outcome.reply, net::DecodeAdviseReply(reply));
  laps.To(&LayerClock::codec);
  return outcome;
}

}  // namespace xia::perfbench
