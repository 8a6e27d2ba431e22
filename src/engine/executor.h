// Plan execution against the document store.
//
// The executor interprets physical plans: collection scans evaluate the
// normalized query on every live document; index plans probe real
// PathValueIndexes, intersect RID lists (index ANDing), fetch candidate
// documents and re-check the full query as a residual. Inserts and deletes
// apply the change and maintain every real index (this is the maintenance
// cost the advisor models).
//
// Plans that reference virtual indexes are rejected: virtual indexes exist
// only for what-if costing (§III).

#ifndef XIA_ENGINE_EXECUTOR_H_
#define XIA_ENGINE_EXECUTOR_H_

#include <cstdint>

#include "engine/query.h"
#include "fault/deadline.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "util/status.h"

namespace xia::engine {

/// Execution counters and results for one statement.
struct ExecResult {
  /// Result items produced (queries) or documents affected (updates).
  uint64_t result_count = 0;
  /// Documents materialized and evaluated.
  uint64_t docs_examined = 0;
  /// Index entries scanned across all legs.
  uint64_t index_entries_scanned = 0;
  /// Index leaf pages touched across all legs.
  uint64_t index_leaf_pages = 0;
  /// Wall-clock seconds.
  double wall_seconds = 0;
  /// Materialized result rows (serialized XML fragments or text values),
  /// capped at the ExecOptions row limit. Empty unless materialization was
  /// requested.
  std::vector<std::string> rows;
};

/// Per-execution options.
struct ExecOptions {
  /// Materialize result rows (queries only). Counting-only execution stays
  /// allocation-free on the result path.
  bool materialize_rows = false;
  /// Maximum rows materialized; counting continues past the cap.
  size_t max_rows = 100;
  /// Execution budget, polled once per document in scan loops. Mutating
  /// statements only poll while locating victims — once the apply phase
  /// starts it runs to completion, so a statement either fails before
  /// changing anything or applies fully. Infinite (the default) costs one
  /// branch per document.
  fault::Deadline deadline;
  /// Cooperative cancellation, polled alongside the deadline. Not owned.
  const fault::CancelToken* cancel = nullptr;
};

/// Receives every successfully executed statement. Implemented by
/// xia::workload's capture sink; defined here so the engine layer can
/// publish without depending on the workload layer. Implementations must
/// be safe to call from whichever thread drives the executor.
class QuerySink {
 public:
  virtual ~QuerySink() = default;
  /// Called after `statement` executed successfully under some plan.
  virtual void OnExecuted(const Statement& statement,
                          const ExecResult& result) = 0;
};

/// Durability hook: receives every successfully executed *mutating*
/// statement (insert/delete/update) before the execution is acknowledged
/// to the caller and before the capture sink sees it. Implemented by
/// xia::wal's WalManager; defined here so the engine layer can publish
/// without depending on the wal layer. A non-OK return fails the
/// statement: the in-memory apply has happened, but the mutation is not
/// durable and the caller must treat the execution as failed.
class CommitLog {
 public:
  virtual ~CommitLog() = default;
  virtual Status OnCommit(const Statement& statement) = 0;
};

/// Executes plans produced by the optimizer.
class Executor {
 public:
  Executor(storage::DocumentStore* store, storage::Catalog* catalog)
      : store_(store), catalog_(catalog) {}

  /// Publishes every successful execution to `sink` (nullptr disables).
  /// The executor does not own the sink.
  void set_sink(QuerySink* sink) { sink_ = sink; }

  /// Commits every successful mutation through `log` (nullptr disables).
  /// The executor does not own the log. Ordering: WAL commit first, then
  /// metrics and the capture sink — a statement the sink observed is
  /// always durable.
  void set_commit_log(CommitLog* log) { commit_log_ = log; }

  /// Executes `statement` under `plan`.
  Result<ExecResult> Execute(const Statement& statement,
                             const optimizer::Plan& plan,
                             const ExecOptions& options);
  Result<ExecResult> Execute(const Statement& statement,
                             const optimizer::Plan& plan) {
    return Execute(statement, plan, ExecOptions());
  }

  /// Optimizes with `opt` then executes the chosen plan.
  Result<ExecResult> ExecuteBest(const Statement& statement,
                                 const optimizer::Optimizer& opt);

  /// EXPLAIN ANALYZE: executes `plan` and renders the optimizer's
  /// estimates next to the actual execution counters.
  Result<std::string> ExplainAnalyze(const Statement& statement,
                                     const optimizer::Plan& plan,
                                     const ExecOptions& options);

 private:
  Result<ExecResult> ExecuteQuery(const Statement& statement,
                                  const optimizer::Plan& plan,
                                  const ExecOptions& options);
  Result<ExecResult> ExecuteInsert(const Statement& statement);
  Result<ExecResult> ExecuteDelete(const Statement& statement,
                                   const optimizer::Plan& plan,
                                   const ExecOptions& options);
  Result<ExecResult> ExecuteUpdate(const Statement& statement,
                                   const optimizer::Plan& plan,
                                   const ExecOptions& options);

  /// Candidate DocIds from the plan's index legs (deduplicated; ANDing
  /// intersects across legs). Populates counters on `result`.
  Result<std::vector<xml::DocId>> CandidateDocs(const Statement& statement,
                                                const optimizer::Plan& plan,
                                                ExecResult* result);

  storage::DocumentStore* store_;
  storage::Catalog* catalog_;
  QuerySink* sink_ = nullptr;
  CommitLog* commit_log_ = nullptr;
};

}  // namespace xia::engine

#endif  // XIA_ENGINE_EXECUTOR_H_
