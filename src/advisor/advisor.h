// The XML Index Advisor: public facade.
//
// Pipeline (Fig. 1 of the paper): enumerate basic candidates through the
// optimizer's Enumerate Indexes mode -> generalize (§V) -> search the
// configuration space under the disk budget (§VI) -> report the
// recommended index patterns with size and estimated-speedup accounting.

#ifndef XIA_ADVISOR_ADVISOR_H_
#define XIA_ADVISOR_ADVISOR_H_

#include <optional>
#include <string>
#include <vector>

#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "advisor/search.h"
#include "engine/query.h"
#include "fault/deadline.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/cost_constants.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xia::advisor {

/// Advisor invocation options.
struct AdvisorOptions {
  /// Disk budget for the recommended configuration, in bytes.
  double disk_budget_bytes = 100.0 * 1024 * 1024;
  SearchAlgorithm algorithm = SearchAlgorithm::kTopDownFull;
  /// Size-expansion threshold of the greedy heuristics (§VI-A).
  double beta = 0.10;
  /// Run the generalization step (§V). Disabling restricts the advisor to
  /// basic candidates.
  bool generalize = true;
  /// §VI-C optimizations (disable for ablation).
  bool use_subconfigurations = true;
  bool use_affected_sets = true;
  /// Charge index-maintenance cost against update statements (§III).
  bool charge_maintenance = true;
  /// Wall-clock budget for the whole advise run, in milliseconds. 0 (the
  /// default) means unbounded. On expiry the pipeline degrades to a
  /// best-so-far recommendation with Recommendation::partial set — it
  /// never fails with kDeadlineExceeded.
  double budget_ms = 0;
  /// Cooperative cancellation, polled alongside the budget. Not owned.
  const fault::CancelToken* cancel = nullptr;
  /// Worker threads for the what-if phases (base costing, candidate
  /// enumeration, benefit probes, search-step batches). 1 (the default)
  /// runs serially; 0 resolves to one thread per hardware thread; ignored
  /// when `pool` is set. Parallel runs produce bit-identical
  /// recommendations — same indexes, benefit, and optimizer-call counts
  /// (DESIGN §12).
  size_t threads = 1;
  /// External worker pool shared across runs (e.g. the OnlineAdvisor's).
  /// Not owned; overrides `threads`. Null = spin up a run-local pool when
  /// `threads` asks for one.
  util::ThreadPool* pool = nullptr;
};

/// One recommended index.
struct RecommendedIndex {
  std::string collection;
  xpath::IndexPattern pattern;
  bool is_general = false;
  uint64_t size_bytes = 0;
  /// DB2-flavoured DDL for the recommendation.
  std::string ddl;
  /// The virtual-index statistics the advisor costed the index with, when
  /// the producer has them (Recommend does; the baseline does not).
  std::optional<storage::IndexStats> stats;
};

/// Advisor output.
struct Recommendation {
  std::vector<RecommendedIndex> indexes;
  double total_size_bytes = 0;
  /// Estimated workload cost with no indexes.
  double base_cost = 0;
  /// Estimated benefit (§III) of the configuration.
  double benefit = 0;
  /// base_cost / (base_cost - benefit).
  double est_speedup = 1.0;
  /// Candidate accounting (Table III).
  size_t basic_candidates = 0;
  size_t total_candidates = 0;
  /// General/specific split (Table IV).
  int general_count = 0;
  int specific_count = 0;
  /// Optimizer calls consumed (enumeration probes + what-if evaluations).
  uint64_t optimizer_calls = 0;
  /// Advisor wall-clock seconds (Fig. 3).
  double advisor_seconds = 0;
  /// Per-phase pipeline trace; depth-0 spans tile the run, so their
  /// durations sum to (nearly) advisor_seconds and their tracked-call
  /// deltas to optimizer_calls.
  obs::Trace trace;
  /// True when the run hit AdvisorOptions::budget_ms (or was cancelled)
  /// and the recommendation is the best configuration found in time.
  bool partial = false;
};

/// The advisor. Holds references to the database's store and statistics; a
/// private scratch catalog isolates its virtual indexes from the system
/// catalog.
class IndexAdvisor {
 public:
  IndexAdvisor(storage::DocumentStore* store,
               const storage::StatisticsCatalog* statistics,
               const storage::CostConstants& cc =
                   storage::DefaultCostConstants())
      : store_(store), statistics_(statistics), cc_(cc) {}

  /// Recommends an index configuration for the workload under the options.
  Result<Recommendation> Recommend(const engine::Workload& workload,
                                   const AdvisorOptions& options);

  /// Enumerates (and optionally generalizes) candidates without searching.
  /// Exposed for experiments (Table III) and tests. With a tracer, records
  /// the enumerate/generalize/statistics phases as spans. On deadline
  /// expiry the set built so far is returned with `partial` set. With a
  /// pool of more than one thread, enumeration probes statements in
  /// parallel (deterministic merge — same set either way).
  Result<CandidateSet> BuildCandidates(
      const engine::Workload& workload, bool generalize,
      obs::Tracer* tracer = nullptr,
      const fault::Deadline& deadline = fault::Deadline(),
      util::ThreadPool* pool = nullptr);

  /// The "All Index" configuration (§VII-B): every basic candidate,
  /// unconstrained by budget. Useful as the best-possible reference.
  Result<Recommendation> AllIndexConfiguration(
      const engine::Workload& workload);

  /// Creates the recommendation's indexes physically in `catalog`.
  Status Materialize(const Recommendation& recommendation,
                     storage::Catalog* catalog,
                     const std::string& name_prefix = "rec") const;

 private:
  Result<Recommendation> RecommendImpl(const engine::Workload& workload,
                                       const AdvisorOptions& options,
                                       bool all_index);

  storage::DocumentStore* store_;
  const storage::StatisticsCatalog* statistics_;
  storage::CostConstants cc_;
};

}  // namespace xia::advisor

#endif  // XIA_ADVISOR_ADVISOR_H_
