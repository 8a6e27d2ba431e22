#include "advisor/dag.h"

#include <algorithm>

#include "xpath/containment.h"

namespace xia::advisor {

std::vector<int> BuildDag(CandidateSet* set) {
  const size_t n = set->candidates.size();
  for (Candidate& c : set->candidates) {
    c.children.clear();
    c.parents.clear();
  }

  // strict[i][j]: candidate i strictly covers candidate j.
  std::vector<std::vector<bool>> strict(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Candidate& a = (*set)[i];
      const Candidate& b = (*set)[j];
      if (!SameIndexKind(a, b)) continue;
      if (!xpath::Covers(a.pattern.path, b.pattern.path)) continue;
      // Equivalent patterns: treat the smaller id as the representative
      // covering the other, so the pair still forms a chain rather than
      // disappearing from the DAG.
      strict[i][j] = i < j || !xpath::Covers(b.pattern.path, a.pattern.path);
    }
  }

  // Transitive reduction: keep edge i->j only if no k with i>k>j.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!strict[i][j]) continue;
      bool immediate = true;
      for (size_t k = 0; k < n && immediate; ++k) {
        if (k == i || k == j) continue;
        if (strict[i][k] && strict[k][j]) immediate = false;
      }
      if (immediate) {
        (*set)[i].children.push_back(static_cast<int>(j));
        (*set)[j].parents.push_back(static_cast<int>(i));
      }
    }
  }

  std::vector<int> roots;
  for (const Candidate& c : set->candidates) {
    if (c.parents.empty()) roots.push_back(c.id);
  }
  return roots;
}

}  // namespace xia::advisor
