// The cost-based optimizer facade, including the two what-if modes the
// XML Index Advisor requires (§III):
//
//  * Enumerate Indexes mode — plants a virtual *universal* index (pattern
//    //*) and reports every query pattern the index-matching step matched
//    against it: "if all possible indexes were available, which rewritten
//    query patterns would benefit from them?" (§IV).
//
//  * Evaluate Indexes mode — ordinary cost-based optimization, but against
//    a catalog populated with virtual indexes, yielding the estimated cost
//    of each statement under a hypothetical configuration.
//
// Optimizer calls are counted so experiments can measure the §VI-C call
// reduction.
//
// Planning is split in two. Prepare() does the work that depends only on
// the statement and the data statistics: normalization, the no-index
// plan, predicate extraction and each predicate's qualifying-entry
// estimate. Optimize(prepared) does the configuration-dependent rest:
// index matching, leg costing and index ANDing. Optimize(statement) is
// exactly Optimize(Prepare(statement)); the advisor prepares each
// workload statement once and probes it under many configurations, the
// split INUM (Papadomanolakis et al., VLDB 2007) makes for the same
// reason. Only the Optimize/OptimizeWithoutIndexes/EnumerateIndexes calls
// count as optimizer calls; Prepare does not.
//
// Thread affinity: an Optimizer instance is immutable after construction —
// the planning entry points (Prepare, Optimize, OptimizeWithoutIndexes,
// EnumerateIndexes, MaintenanceCost) are const, never mutate the catalog,
// and record calls through an atomic obs::Counter. Concurrent planning is
// therefore safe as long as each thread either shares a catalog that is
// not concurrently mutated or owns a private scratch catalog, as each
// advise call does. Virtual-index what-if mutations go through
// storage::Catalog, so "one catalog + one optimizer per advise call" is
// the unit of isolation (DESIGN §12).

#ifndef XIA_OPTIMIZER_OPTIMIZER_H_
#define XIA_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/deadline.h"
#include "obs/metrics.h"
#include "engine/normalizer.h"
#include "engine/query.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"

namespace xia::optimizer {

/// The configuration-independent half of planning one statement (see the
/// header comment). Valid while the statement it was prepared from is
/// alive and the StatisticsCatalog it was prepared against is unchanged;
/// it carries no statistics epoch, so a caller that re-collects
/// statistics must prepare again. The catalog's indexes are not part of
/// it: any optimizer over the same statistics and cost constants plans it
/// correctly under any index configuration.
struct PreparedStatement {
  /// The statement this was prepared from (not owned).
  const engine::Statement* statement = nullptr;
  /// Statistics of the statement's collection (not owned). Null only for
  /// an insert into a collection without statistics.
  const storage::CollectionStatistics* data = nullptr;
  /// The normalized query, or a delete's/update's normalized match path;
  /// empty for inserts.
  engine::NormalizedQuery query;
  /// The plan with no indexes: the collection scan that finds the
  /// qualifying documents (before any write surcharge), or the finished
  /// plan of an insert.
  Plan scan;
  /// Cost of fetching one candidate document and re-evaluating the query
  /// on it (CostModel::FetchCostPerDocument).
  double fetch_cost_per_doc = 0;
  /// What a delete or update adds to whichever find plan wins: removing
  /// the documents, or rewriting the target nodes. Zero for queries.
  double write_surcharge = 0;
  /// Indexable predicates of `query`, and for each the index entries that
  /// truly satisfy it, estimated against its own pattern's value
  /// distribution (the floor of any covering index's scan).
  std::vector<IndexablePredicate> predicates;
  std::vector<double> pattern_entries;
};

/// Cost-based optimizer over one catalog.
class Optimizer {
 public:
  /// Planning options.
  struct Options {
    /// Consider real (physical) indexes during matching.
    bool use_real_indexes = true;
    /// Consider virtual indexes during matching.
    bool use_virtual_indexes = true;
    /// Allow multi-index (index-ANDing) plans.
    bool enable_index_anding = true;
    /// Planning budget: once expired, Optimize / EnumerateIndexes return
    /// kDeadlineExceeded at entry instead of starting new enumeration
    /// work. Defaults to infinite, which costs one branch per call.
    fault::Deadline deadline;
  };

  Optimizer(const storage::DocumentStore* store,
            const storage::Catalog* catalog,
            const storage::StatisticsCatalog* statistics,
            Options options)
      : store_(store),
        catalog_(catalog),
        statistics_(statistics),
        options_(options),
        cost_model_(catalog->cost_constants()) {}

  /// Constructs with default options.
  Optimizer(const storage::DocumentStore* store,
            const storage::Catalog* catalog,
            const storage::StatisticsCatalog* statistics)
      : Optimizer(store, catalog, statistics, Options()) {}

  /// The statement-only half of planning. Not an optimizer call: it
  /// neither counts, nor checks the deadline, nor hits the
  /// kOptimizerPlan fault point.
  Result<PreparedStatement> Prepare(const engine::Statement& statement) const;

  /// Plans a prepared statement against the catalog's current indexes and
  /// returns the best plan with its cost estimate.
  Result<Plan> Optimize(const PreparedStatement& prepared) const;

  /// Plans a prepared statement pretending no indexes exist (the baseline
  /// cost s_old of §III).
  Result<Plan> OptimizeWithoutIndexes(const PreparedStatement& prepared) const;

  /// Optimize(Prepare(statement)).
  Result<Plan> Optimize(const engine::Statement& statement) const;

  /// OptimizeWithoutIndexes(Prepare(statement)).
  Result<Plan> OptimizeWithoutIndexes(const engine::Statement& statement) const;

  /// Enumerate Indexes mode: candidate index patterns for one statement.
  /// Queries and deletes yield patterns; inserts yield none.
  Result<std::vector<xpath::IndexPattern>> EnumerateIndexes(
      const engine::Statement& statement) const;

  /// Maintenance cost mc(x, s) of the index with the given pattern and
  /// derived statistics under statement `s` (§III). Zero for queries.
  /// Inserts and deletes maintain every index of the statement's
  /// collection; value updates only maintain indexes whose pattern can
  /// reach the updated nodes.
  double MaintenanceCost(const PreparedStatement& prepared,
                         const xpath::IndexPattern& index_pattern,
                         const storage::IndexStats& index_stats) const;

  /// MaintenanceCost of Prepare(statement); zero when it cannot be
  /// prepared.
  double MaintenanceCost(const engine::Statement& statement,
                         const xpath::IndexPattern& index_pattern,
                         const storage::IndexStats& index_stats) const;

  const CostModel& cost_model() const { return cost_model_; }

  /// Number of Optimize/EnumerateIndexes invocations since construction or
  /// the last ResetCallCount. Backed by an obs::Counter (every call also
  /// feeds the process-wide `xia.optimizer.optimize_calls` metric); this
  /// accessor stays for API compatibility.
  uint64_t optimize_calls() const { return optimize_calls_.value(); }
  void ResetCallCount() { optimize_calls_.Reset(); }

 private:
  Result<Plan> OptimizeImpl(const PreparedStatement& prepared,
                            bool allow_indexes) const;
  /// The cheapest find plan of a prepared query, delete or update under
  /// the catalog's indexes.
  Plan BestFindPlan(const PreparedStatement& prepared) const;

  const storage::DocumentStore* store_;
  const storage::Catalog* catalog_;
  const storage::StatisticsCatalog* statistics_;
  Options options_;
  CostModel cost_model_;
  /// Per-instance call count (atomic, so const planning entry points can
  /// record without the old mutable-integer data race).
  mutable obs::Counter optimize_calls_;
};

}  // namespace xia::optimizer

#endif  // XIA_OPTIMIZER_OPTIMIZER_H_
