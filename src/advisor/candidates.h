// Candidate indexes and the basic candidate set (§IV).
//
// Basic candidates come straight from the optimizer's Enumerate Indexes
// mode, one probe per workload statement; each candidate remembers which
// statements produced it — its *affected set* (§VI-C) — and is later
// annotated with derived statistics (size, levels) from the collection's
// data statistics.

#ifndef XIA_ADVISOR_CANDIDATES_H_
#define XIA_ADVISOR_CANDIDATES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/query.h"
#include "fault/deadline.h"
#include "optimizer/optimizer.h"
#include "storage/cost_constants.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "xpath/path.h"

namespace xia::advisor {

/// One candidate index.
struct Candidate {
  /// Position in CandidateSet::candidates.
  int id = -1;
  std::string collection;
  xpath::IndexPattern pattern;
  /// True when produced by the generalization step (§V).
  bool is_general = false;
  /// DAG edges: immediate more-specific candidates this one covers.
  std::vector<int> children;
  /// DAG edges: immediate generalizations of this candidate.
  std::vector<int> parents;
  /// Ids of the *basic* candidates whose patterns this candidate covers
  /// (for a basic candidate: itself).
  std::vector<int> covered_basics;
  /// Workload statement indices that can benefit from this index (§VI-C).
  std::vector<size_t> affected;
  /// Statistics derived from data statistics (the virtual-index stats).
  storage::IndexStats stats;

  uint64_t size_bytes() const { return stats.size_bytes; }
  std::string ToString() const;
};

/// True when one of the two candidates can cover the other: same
/// collection, and either both structural or both value indexes of one
/// type. Generalization and the DAG only relate candidates of one kind.
inline bool SameIndexKind(const Candidate& a, const Candidate& b) {
  return a.collection == b.collection &&
         a.pattern.structural == b.pattern.structural &&
         (a.pattern.structural || a.pattern.type == b.pattern.type);
}

/// The candidate set: basic candidates first, generalized ones appended.
struct CandidateSet {
  std::vector<Candidate> candidates;
  /// candidates[0 .. basic_count) are the basic set.
  size_t basic_count = 0;
  /// Optimizer calls consumed by the Enumerate Indexes probes that built
  /// the basic set. These come from a short-lived enumeration optimizer, so
  /// the advisor must add them to its evaluator's count — dropping them
  /// (the old behaviour) understated Recommendation::optimizer_calls.
  uint64_t enumeration_optimizer_calls = 0;
  /// True when enumeration stopped early on a deadline: candidates from
  /// the statements probed so far are present, later statements were never
  /// probed.
  bool partial = false;

  /// Index of the first candidate with this collection and pattern, or
  /// -1. A hash lookup: candidates appended since the last call are
  /// indexed first, so code may push onto `candidates` directly, but an
  /// indexed candidate's collection and pattern must not change.
  int Find(const std::string& collection, const xpath::IndexPattern& pattern);

  size_t size() const { return candidates.size(); }
  const Candidate& operator[](size_t i) const { return candidates[i]; }
  Candidate& operator[](size_t i) { return candidates[i]; }

 private:
  // Find's index over candidates[0 .. indexed_): positions by a hash of
  // (collection, pattern).
  std::unordered_multimap<uint64_t, int> index_;
  size_t indexed_ = 0;
};

/// Runs the optimizer in Enumerate Indexes mode on every statement and
/// collects the deduplicated basic candidate set with affected sets.
/// The deadline is polled between statements: on expiry the set built so
/// far is returned with `partial` set, rather than an error — a partial
/// candidate set still supports a best-so-far recommendation.
Result<CandidateSet> EnumerateBasicCandidates(
    const engine::Workload& workload, const optimizer::Optimizer& optimizer,
    const fault::Deadline& deadline = fault::Deadline());

/// Parallel enumeration: probes statements concurrently on `pool`, each
/// probe planning through a leased scratch catalog + optimizer, then
/// merges the per-statement pattern lists serially in statement order —
/// candidate ids, affected sets, and the dedup outcome are identical to
/// the serial enumeration. Statements the deadline cut off are skipped
/// (their patterns never merge) and `partial` is set.
/// CandidateSet::enumeration_optimizer_calls is filled in from the scratch
/// optimizers before returning.
Result<CandidateSet> EnumerateBasicCandidates(
    const engine::Workload& workload, storage::DocumentStore* store,
    const storage::StatisticsCatalog* statistics,
    const storage::CostConstants& cc, util::ThreadPool* pool,
    const fault::Deadline& deadline = fault::Deadline());

/// Fills Candidate::stats for every candidate from data statistics.
Status PopulateStatistics(CandidateSet* set,
                          const storage::StatisticsCatalog& statistics,
                          const storage::CostConstants& cc);

}  // namespace xia::advisor

#endif  // XIA_ADVISOR_CANDIDATES_H_
