#include "db/database.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <utility>

#include "storage/snapshot.h"
#include "util/crc32.h"
#include "util/stopwatch.h"

namespace xia {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      catalog_(&store_, &statistics_),
      executor_(&store_, &catalog_),
      advisor_(&store_, &statistics_) {
  // Every executed statement flows into the capture; it stays disabled
  // (one atomic load per statement) until a front end enables it.
  executor_.set_sink(&capture_);
}

Status Database::Open(const fault::Deadline& deadline) {
  if (options_.data_dir.empty()) return Status::OK();
  wal::WalManagerOptions wal_options;
  if (!options_.fsync_policy.empty()) {
    XIA_ASSIGN_OR_RETURN(wal_options.writer.policy,
                         wal::ParseFsyncPolicy(options_.fsync_policy));
  }
  wal_options.writer.test_hook = options_.test_hook;
  wal_ = std::make_unique<wal::WalManager>(options_.data_dir, wal_options);
  XIA_ASSIGN_OR_RETURN(recovery_, wal_->Open(&store_, &catalog_, &statistics_,
                                             deadline));
  executor_.set_commit_log(wal_.get());
  return Status::OK();
}

Status Database::BulkLoad(const Loader& load) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const std::vector<std::string> before = store_.CollectionNames();
  Status status = load(&store_, &statistics_);
  // The load bypasses the WAL, so a checkpoint makes it durable. The
  // checkpoint takes the last LSN; a follower already at that LSN would
  // ask for the tail and silently miss the load, so one record goes
  // ahead of it. That record names no collection: if the checkpoint then
  // fails and the load is rolled back, the log names nothing that is
  // gone.
  if (status.ok() && wal_) {
    status = wal_->LogNoOp();
    if (status.ok()) status = wal_->Checkpoint(store_, catalog_);
  }
  if (!status.ok()) {
    for (const std::string& name : store_.CollectionNames()) {
      if (std::binary_search(before.begin(), before.end(), name)) continue;
      store_.DropCollection(name);
      statistics_.Drop(name);
    }
  }
  return status;
}

optimizer::Optimizer Database::MakeOptimizer(
    const fault::Deadline& deadline) const {
  optimizer::Optimizer::Options options;
  options.deadline = deadline;
  return optimizer::Optimizer(&store_, &catalog_, &statistics_, options);
}

Result<RunResult> Database::Run(const engine::Statement& statement,
                                const RunOptions& options) {
  const bool mutation = statement.is_modification();
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (mutation) {
    exclusive.lock();
  } else {
    shared.lock();
  }
  if (mutation && options.expected_epoch != 0 &&
      options.expected_epoch != repl_epoch()) {
    return Status::Fenced("mutation fenced: expected epoch " +
                          std::to_string(options.expected_epoch) +
                          ", server is in epoch " +
                          std::to_string(repl_epoch()));
  }
  RunResult result;
  XIA_ASSIGN_OR_RETURN(result.plan,
                       MakeOptimizer(options.deadline).Optimize(statement));
  XIA_ASSIGN_OR_RETURN(result.exec,
                       executor_.Execute(statement, result.plan, options));
  if (mutation && wal_) result.lsn = wal_->GetStatus().next_lsn - 1;
  return result;
}

Result<std::string> Database::Explain(const engine::Statement& statement,
                                      bool analyze,
                                      const engine::ExecOptions& options) {
  // EXPLAIN ANALYZE of a mutation executes it, so it needs the writer
  // lock; everything else only reads.
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (analyze && statement.is_modification()) {
    exclusive.lock();
  } else {
    shared.lock();
  }
  XIA_ASSIGN_OR_RETURN(const optimizer::Plan plan,
                       MakeOptimizer(options.deadline).Optimize(statement));
  if (!analyze) return plan.Describe();
  return executor_.ExplainAnalyze(statement, plan, options);
}

Result<std::vector<xpath::IndexPattern>> Database::EnumerateIndexes(
    const engine::Statement& statement) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return MakeOptimizer({}).EnumerateIndexes(statement);
}

Status Database::CreateCollection(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  XIA_ASSIGN_OR_RETURN(storage::Collection * coll,
                       store_.CreateCollection(name));
  statistics_.RunStats(*coll);
  if (wal_) return wal_->LogCreateCollection(name);
  return Status::OK();
}

Result<IndexBuildResult> Database::CreateIndex(
    const engine::CreateIndexSpec& spec) {
  IndexBuildResult result;
  if (spec.online && !spec.is_virtual) {
    // Non-blocking build (DESIGN §16): queries keep running under shared
    // locks while the scan proceeds; the WAL record is written inside
    // the swap's exclusive section so crash recovery either replays the
    // whole index build or none of it.
    const auto commit = [&]() -> Status {
      if (wal_) return wal_->LogCreateIndex(spec.name, spec.collection,
                                            spec.pattern);
      return Status::OK();
    };
    XIA_ASSIGN_OR_RETURN(
        const storage::IndexDef* def,
        storage::BuildIndexOnline(&catalog_, &mu_, spec.name, spec.collection,
                                  spec.pattern, {}, commit, &result.online));
    result.stats = def->stats;
    result.build_seconds = result.online.total_seconds;
    return result;
  }
  Stopwatch timer;
  std::unique_lock<std::shared_mutex> lock(mu_);
  XIA_ASSIGN_OR_RETURN(
      const storage::IndexDef* def,
      spec.is_virtual
          ? catalog_.CreateVirtualIndex(spec.name, spec.collection,
                                        spec.pattern)
          : catalog_.CreateIndex(spec.name, spec.collection, spec.pattern));
  result.stats = def->stats;
  if (spec.is_virtual) return result;
  if (wal_) {
    XIA_RETURN_IF_ERROR(
        wal_->LogCreateIndex(spec.name, spec.collection, spec.pattern));
  }
  result.build_seconds = timer.ElapsedSeconds();
  return result;
}

Status Database::DropIndex(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  XIA_ASSIGN_OR_RETURN(const storage::IndexDef* def, catalog_.Get(name));
  const bool was_real = !def->is_virtual;
  XIA_RETURN_IF_ERROR(catalog_.DropIndex(name));
  if (was_real && wal_) return wal_->LogDropIndex(name);
  return Status::OK();
}

Status Database::RunStats(const std::string& collection) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  XIA_ASSIGN_OR_RETURN(const storage::Collection* coll,
                       store_.GetCollection(collection));
  statistics_.RunStats(*coll);
  if (wal_) return wal_->LogStatsRefresh(collection);
  return Status::OK();
}

Status Database::Checkpoint() {
  if (!wal_) {
    return Status::FailedPrecondition("no WAL to checkpoint (volatile)");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return wal_->Checkpoint(store_, catalog_);
}

Result<uint64_t> Database::BumpEpoch() {
  if (!wal_) {
    return Status::FailedPrecondition(
        "promotion requires a durable data dir");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return wal_->BumpEpoch();
}

Result<advisor::Recommendation> Database::Advise(
    const engine::Workload& workload, const advisor::AdvisorOptions& options) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return advisor_.Recommend(workload, options);
}

Result<std::string> Database::Digest() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::ostringstream out;
  XIA_RETURN_IF_ERROR(storage::SaveSnapshot(store_, out));
  std::string bytes = out.str();
  // Index definitions are digested name-sorted: a follower loads its
  // catalog from a name-ordered file while the leader built its by
  // replay order, so only the set — not the order — is comparable.
  std::vector<std::string> defs;
  for (const std::string& coll : store_.CollectionNames()) {
    for (const storage::IndexDef* def : catalog_.IndexesFor(coll)) {
      if (def->is_virtual) continue;
      defs.push_back(def->name + "@" + def->collection + ":" +
                     def->pattern.ToString());
    }
  }
  std::sort(defs.begin(), defs.end());
  bytes += "|indexes:";
  for (const std::string& def : defs) {
    bytes += def;
    bytes += ';';
  }
  return std::to_string(Crc32(bytes)) + "-" + std::to_string(bytes.size());
}

Status Database::Close() {
  if (!wal_) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(mu_);
  Status result = wal_->Checkpoint(store_, catalog_);
  const Status closed = wal_->Close();
  return result.ok() ? closed : result;
}

}  // namespace xia
