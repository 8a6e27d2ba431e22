// The candidate DAG used by top-down search (§VI-B).
//
// Nodes are candidates; an edge g -> c means g is an *immediate*
// generalization of c (g strictly covers c with no third candidate strictly
// between them). Roots are the most general candidates obtainable from the
// workload; top-down search starts from the roots and repeatedly replaces a
// general index by its children until the configuration fits the budget.

#ifndef XIA_ADVISOR_DAG_H_
#define XIA_ADVISOR_DAG_H_

#include <vector>

#include "advisor/candidates.h"

namespace xia::advisor {

/// Populates Candidate::children / Candidate::parents with the transitive
/// reduction of the strict-coverage relation (per collection and type), and
/// returns the root candidate ids (no parents). Candidates equivalent to
/// one another are collapsed by keeping edges only through the one with the
/// smallest id.
///
/// The relations are bitset rows, and the reduction is word ANDs. A general
/// candidate's covered_basics must be what GeneralizeCandidates leaves:
/// exactly the basic candidates of its kind it covers. Those Covers results
/// are reused, not recomputed.
std::vector<int> BuildDag(CandidateSet* set);

}  // namespace xia::advisor

#endif  // XIA_ADVISOR_DAG_H_
