// xia::Database — the one request path (DESIGN §18).
//
// Owns the engine stack: the document store, statistics, catalog,
// executor (publishing into the workload capture), the optional WAL and
// the std::shared_mutex that serializes them. net::Server, xia_shell and
// xia_crash_harness run every statement, DDL, advise call and checkpoint
// through it. Queries, Explain, EnumerateIndexes, Advise and Digest take
// the lock shared; mutations (and EXPLAIN ANALYZE of one), BulkLoad, DDL,
// RunStats and checkpoints take it exclusively, and commit through the
// WAL before releasing it; online index builds take it in phases.
// Lock order: a caller's role lock -> mutex() -> WAL internals.

#ifndef XIA_DB_DATABASE_H_
#define XIA_DB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "engine/ddl.h"
#include "engine/executor.h"
#include "fault/deadline.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/online_build.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "wal/manager.h"
#include "workload/capture.h"

namespace xia {

struct DatabaseOptions {
  /// Durable data directory (wal::WalManager layout). Empty = volatile.
  std::string data_dir;
  /// WAL fsync policy name ("always"/"interval"/"off"); "" = default.
  std::string fsync_policy;
  /// Crash-harness hook threaded into the WAL writer.
  wal::WalTestHook test_hook;
};

/// Execution options for Run, plus the replication fence.
struct RunOptions : engine::ExecOptions {
  /// Nonzero: a mutation fails with kFenced unless the database is in
  /// this replication epoch. Checked under the exclusive lock, so a
  /// promotion serialized before the mutation cannot let it through.
  uint64_t expected_epoch = 0;
};

struct RunResult {
  optimizer::Plan plan;
  engine::ExecResult exec;
  /// A durable mutation's LSN, read under the exclusive lock; 0 for
  /// queries and volatile databases.
  uint64_t lsn = 0;
};

struct IndexBuildResult {
  storage::IndexStats stats;
  double build_seconds = 0;
  /// Filled by online builds only.
  storage::OnlineBuildReport online;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens the data dir: recovers it (or initializes it fresh) and
  /// routes every later mutation through its WAL. A no-op for a
  /// volatile database. Replay polls `deadline` once per record.
  Status Open(const fault::Deadline& deadline = {});

  /// Runs `load` (demo generation, directory load, snapshot restore)
  /// under the exclusive lock. It bypasses the WAL, so a durable
  /// database then logs one no-op record (WalManager::LogNoOp) and
  /// checkpoints: a checkpoint at the LSN a follower already holds would
  /// be invisible to it, and it would silently miss the whole load.
  /// A loader only creates collections. When it, the no-op record or the
  /// checkpoint fails, the collections it created and their statistics
  /// are dropped, so the store and the statistics are as before the call
  /// and neither they nor the log name anything unlogged.
  using Loader = std::function<Status(storage::DocumentStore*,
                                      storage::StatisticsCatalog*)>;
  Status BulkLoad(const Loader& load);

  /// Plans and executes `statement`: shared lock for a query, exclusive
  /// (with the epoch fence and the WAL commit) for a mutation.
  Result<RunResult> Run(const engine::Statement& statement,
                        const RunOptions& options = {});

  /// The best plan's description, or with `analyze` the EXPLAIN ANALYZE
  /// report (which executes the statement).
  Result<std::string> Explain(const engine::Statement& statement,
                              bool analyze,
                              const engine::ExecOptions& options = {});

  /// The optimizer's Enumerate Indexes mode for one statement.
  Result<std::vector<xpath::IndexPattern>> EnumerateIndexes(
      const engine::Statement& statement);

  Status CreateCollection(const std::string& name);
  /// A virtual index, else an online build when `spec.online`, else an
  /// offline one. Real builds are logged; virtual indexes are advisor
  /// scratch state and are not.
  Result<IndexBuildResult> CreateIndex(const engine::CreateIndexSpec& spec);
  Status DropIndex(const std::string& name);
  Status RunStats(const std::string& collection);
  /// kFailedPrecondition for a volatile database.
  Status Checkpoint();
  /// Promotion: opens the next replication epoch (WalManager::BumpEpoch)
  /// and returns its barrier LSN.
  Result<uint64_t> BumpEpoch();

  /// What-if advising; each call's advisor keeps its virtual indexes in
  /// a private scratch catalog, so the shared lock suffices.
  Result<advisor::Recommendation> Advise(
      const engine::Workload& workload,
      const advisor::AdvisorOptions& options);

  /// A deterministic digest of the full state: snapshot bytes plus the
  /// name-sorted real index definitions. Equal digests mean equal data.
  Result<std::string> Digest();

  /// Checkpoints and closes the WAL (shutdown). A no-op when volatile.
  Status Close();

  /// Replication epoch of the WAL (1 when volatile or never promoted).
  uint64_t repl_epoch() const { return wal_ ? wal_->repl_epoch() : 1; }

  std::shared_mutex& mutex() { return mu_; }
  storage::DocumentStore& store() { return store_; }
  storage::StatisticsCatalog& statistics() { return statistics_; }
  storage::Catalog& catalog() { return catalog_; }
  workload::WorkloadCapture& capture() { return capture_; }
  advisor::IndexAdvisor& advisor() { return advisor_; }
  /// Null for a volatile database.
  wal::WalManager* wal() const { return wal_.get(); }
  const wal::RecoveryReport& recovery() const { return recovery_; }

 private:
  optimizer::Optimizer MakeOptimizer(const fault::Deadline& deadline) const;

  const DatabaseOptions options_;
  std::shared_mutex mu_;
  storage::DocumentStore store_;
  storage::StatisticsCatalog statistics_;
  storage::Catalog catalog_;
  engine::Executor executor_;
  advisor::IndexAdvisor advisor_;
  workload::WorkloadCapture capture_;
  std::unique_ptr<wal::WalManager> wal_;
  wal::RecoveryReport recovery_;
};

}  // namespace xia

#endif  // XIA_DB_DATABASE_H_
