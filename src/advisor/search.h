// Configuration search (§VI): five algorithms over the candidate set.
//
//  * kGreedy              — greedy 0/1 knapsack on standalone benefits,
//                           ignores index interaction and redundancy.
//  * kGreedyWithHeuristics— greedy on whole-configuration benefit with the
//                           coverage bitmap and the general-index admission
//                           conditions IB(x_g) >= IB(x_1..x_n) and
//                           Size(x_g) <= (1+beta) * sum Size(x_i)  (§VI-A).
//  * kTopDownLite         — DAG descent choosing the general index with the
//                           smallest dB/dC to replace by its children,
//                           benefits additive (no interaction)     (§VI-B).
//  * kTopDownFull         — same descent, but dB evaluated on whole
//                           configurations via the BenefitEvaluator.
//  * kDynamicProgramming  — exact 0/1 knapsack on standalone benefits
//                           (optimal modulo index interaction).

#ifndef XIA_ADVISOR_SEARCH_H_
#define XIA_ADVISOR_SEARCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "advisor/benefit.h"
#include "advisor/candidates.h"
#include "fault/deadline.h"
#include "util/status.h"

namespace xia::advisor {

enum class SearchAlgorithm {
  kGreedy = 0,
  kGreedyWithHeuristics,
  kTopDownLite,
  kTopDownFull,
  kDynamicProgramming,
  /// Interaction-aware exhaustive enumeration of every subset. The true
  /// optimum, exponential in the candidate count — refused beyond
  /// SearchOptions::exhaustive_limit candidates. The paper cites
  /// exhaustive search as the (too slow) alternative in [21]; here it
  /// serves as the oracle that bounds the other algorithms in tests.
  kExhaustive,
};

const char* SearchAlgorithmName(SearchAlgorithm a);

/// Parses the command-line / wire name of a search algorithm: "greedy",
/// "heuristics", "topdown-lite", "topdown-full" or "dp".
Result<SearchAlgorithm> ParseSearchAlgorithm(std::string_view name);

/// Search tuning knobs.
struct SearchOptions {
  /// Disk budget in bytes.
  double disk_budget_bytes = 0;
  /// beta of the size heuristic (§VI-A); 0.10 per the paper.
  double beta = 0.10;
  /// Knapsack size granularity for dynamic programming, in bytes.
  double dp_granularity_bytes = 4096;
  /// Candidate-count cap for kExhaustive (2^n subsets are evaluated).
  size_t exhaustive_limit = 16;
  /// Time budget. Polled between configuration evaluations; on expiry the
  /// search stops and returns its best configuration so far with
  /// SearchOutcome::partial set — never an error. The overrun is bounded
  /// by one benefit evaluation (the final Finalize pass is always
  /// allowed, so even a partial outcome carries a real benefit figure).
  fault::Deadline deadline;
  /// Cooperative cancellation, polled alongside the deadline. Not owned.
  const fault::CancelToken* cancel = nullptr;
};

/// Outcome of a search.
struct SearchOutcome {
  std::vector<int> selected;  ///< candidate ids, sorted
  double total_size_bytes = 0;
  double benefit = 0;  ///< configuration benefit (§III) of `selected`
  int general_count = 0;
  int specific_count = 0;
  /// True when the search stopped on a deadline or cancellation and
  /// `selected` is the best configuration found so far.
  bool partial = false;
};

/// Runs `algorithm` over the candidates. `roots` are the DAG roots from
/// BuildDag (required by the top-down algorithms, ignored otherwise).
Result<SearchOutcome> RunSearch(SearchAlgorithm algorithm,
                                const CandidateSet& set,
                                const std::vector<int>& roots,
                                BenefitEvaluator* evaluator,
                                const SearchOptions& options);

}  // namespace xia::advisor

#endif  // XIA_ADVISOR_SEARCH_H_
