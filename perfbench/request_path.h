// The server's request path, run in-process without the socket.
//
// Database wires store, statistics, catalog, executor, WAL and workload
// capture the way net::Server::InitDatabase does, and RunStatement /
// RunAdvise replay the public calls of net::Server::HandleQuery,
// HandleMutation and HandleAdvise in the same order, with the client's
// encode/decode on either side. README.md lists the call sequence.
//
// When a LayerClock is passed, the calls are timed at each layer
// boundary; WAL commit and capture time come from the two decorators
// below, which the traced run puts between the executor and the real
// WalManager / WorkloadCapture.

#ifndef XIA_PERFBENCH_REQUEST_PATH_H_
#define XIA_PERFBENCH_REQUEST_PATH_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>

#include "advisor/advisor.h"
#include "engine/executor.h"
#include "net/wire.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "wal/manager.h"
#include "workload/capture.h"

namespace xia::perfbench {

/// Seconds spent in each layer, summed over the requests that were traced.
struct LayerClock {
  double codec = 0;    // client encode/decode, server frame read/encode
  double parse = 0;    // ParseStatement, or DeserializeWorkload (advise)
  double plan = 0;     // Optimizer construction + Optimize
  double execute = 0;  // Executor::Execute, including WAL commit and capture
  double advise = 0;   // IndexAdvisor::Recommend
  double wal = 0;      // WalManager::OnCommit (inside execute)
  double capture = 0;  // WorkloadCapture::OnExecuted (inside execute)
};

/// CommitLog decorator that times WalManager::OnCommit.
class TimedCommitLog : public engine::CommitLog {
 public:
  TimedCommitLog(engine::CommitLog* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  Status OnCommit(const engine::Statement& statement) override;

 private:
  engine::CommitLog* inner_;
  LayerClock* clock_;
};

/// QuerySink decorator that times WorkloadCapture::OnExecuted.
class TimedSink : public engine::QuerySink {
 public:
  TimedSink(engine::QuerySink* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  void OnExecuted(const engine::Statement& statement,
                  const engine::ExecResult& result) override;

 private:
  engine::QuerySink* inner_;
  LayerClock* clock_;
};

/// One database as net::Server holds it.
struct Database {
  storage::DocumentStore store;
  storage::StatisticsCatalog statistics;
  storage::Catalog catalog{&store, &statistics};
  engine::Executor executor{&store, &catalog};
  workload::WorkloadCapture capture;
  std::unique_ptr<wal::WalManager> wal;
  std::shared_mutex mu;

  /// Opens a WAL with fsync=off in `wal_dir` (which must not exist or be
  /// empty) and wires it and the capture into the executor.
  Status OpenWal(const std::string& wal_dir);

  /// Routes the executor's commit log and sink through timing decorators
  /// feeding `clock`, or (nullptr) straight to the WAL and capture.
  void SetTracing(LayerClock* clock);

 private:
  std::unique_ptr<TimedCommitLog> timed_log_;
  std::unique_ptr<TimedSink> timed_sink_;
};

/// Sends one query (`is_query`) or mutation through the request path and
/// returns the client's decoded reply.
Result<net::ExecReply> RunStatement(Database* db, const std::string& text,
                                    bool is_query, bool materialize_rows,
                                    uint64_t request_id, LayerClock* clock);

/// What an advise request returns to the client, plus the server-side
/// recommendation that the reply was built from (for its trace).
struct AdviseOutcome {
  net::AdviseReply reply;
  advisor::Recommendation recommendation;
};

/// Sends one advise request (workload text, algorithm name as the wire
/// carries it, disk budget) through the request path.
Result<AdviseOutcome> RunAdvise(Database* db, const std::string& workload_text,
                                const std::string& algorithm,
                                double disk_budget_bytes, uint64_t request_id,
                                LayerClock* clock);

}  // namespace xia::perfbench

#endif  // XIA_PERFBENCH_REQUEST_PATH_H_
