// Containment and matching of linear XPath patterns.
//
// A linear pattern P over axes {/, //} and name tests {label, *} denotes a
// language L(P) of root-to-node label sequences. Two questions recur:
//
//  * Matching: does P match a concrete label path (used when building an
//    index over the data, and when deriving virtual index statistics)?
//
//  * Coverage (containment): is L(Q) a subset of L(P)? The optimizer uses
//    this as its index-matching test — an index with pattern P can answer
//    a query pattern Q exactly when every node Q can reach is in P's index.
//    The advisor uses it to decide which basic candidates a generalized
//    candidate subsumes (§V, §VI).
//
// For this fragment, coverage is decidable in polynomial time by simulating
// the subset construction of P's (linear) NFA over the symbolic input
// described by Q: concrete labels step the automaton directly; Q wildcards
// branch over P's alphabet plus a fresh symbol; Q descendant gaps close the
// reachable-state family under arbitrary-symbol transitions to a fixpoint.

#ifndef XIA_XPATH_CONTAINMENT_H_
#define XIA_XPATH_CONTAINMENT_H_

#include <vector>

#include "xml/tag.h"
#include "xpath/path.h"

namespace xia::xpath {

/// True if pattern `p` matches the concrete root-to-node label sequence.
/// Labels compare as interned tags.
bool MatchesLabelPath(const Path& p, const std::vector<xml::Tag>& labels);

/// True if every label path matched by `query` is also matched by `index`,
/// i.e. L(query) ⊆ L(index). Reflexive and transitive.
bool Covers(const Path& index, const Path& query);

/// True if the two patterns denote the same language.
inline bool Equivalent(const Path& a, const Path& b) {
  return Covers(a, b) && Covers(b, a);
}

/// True if `a` strictly covers `b` (covers it and is not equivalent).
inline bool StrictlyCovers(const Path& a, const Path& b) {
  return Covers(a, b) && !Covers(b, a);
}

}  // namespace xia::xpath

#endif  // XIA_XPATH_CONTAINMENT_H_
