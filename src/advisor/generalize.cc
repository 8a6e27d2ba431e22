#include "advisor/generalize.h"

#include <algorithm>
#include <set>
#include <string>

#include "xpath/containment.h"

namespace xia::advisor {

namespace {

using xpath::Axis;
using xpath::Path;
using xpath::Step;

// Recursion state for Algorithm 1: positions i, j into the step lists of
// the two patterns being generalized.
struct Generalizer {
  const std::vector<Step>& a;
  const std::vector<Step>& b;
  std::set<std::string> seen;   // dedup by rendered path
  std::vector<Path> results;
  // The recursion tree is small for realistic patterns, but Rule 4 branches
  // three ways; cap defensively.
  int budget = 4096;

  bool IsLastA(size_t i) const { return i + 1 == a.size(); }
  bool IsLastB(size_t j) const { return j + 1 == b.size(); }

  static Axis GenAxis(Axis x, Axis y) {
    return (x == Axis::kDescendant || y == Axis::kDescendant)
               ? Axis::kDescendant
               : Axis::kChild;
  }

  void Emit(const Path& gen) {
    const Path rewritten = RewriteWildcardRuns(gen);
    const std::string key = rewritten.ToString();
    if (seen.insert(key).second) results.push_back(rewritten);
  }

  // Appends the generalization of steps a[i] and b[j] to `gen`.
  static void AppendGeneralized(Path* gen, const Step& x, const Step& y) {
    const std::string name = (x.name_test == y.name_test) ? x.name_test : "*";
    gen->Append(GenAxis(x.axis, y.axis), name);
  }

  // Algorithm 1: generalize current nodes, then advance.
  void GeneralizeStep(Path gen, size_t i, size_t j) {
    if (--budget < 0) return;
    if (IsLastA(i) != IsLastB(j)) {
      AdvanceStep(std::move(gen), i, j);
      return;
    }
    AppendGeneralized(&gen, a[i], b[j]);
    AdvanceStep(std::move(gen), i, j);
  }

  // Table II.
  void AdvanceStep(Path gen, size_t i, size_t j) {
    if (--budget < 0) return;
    const bool la = IsLastA(i);
    const bool lb = IsLastB(j);
    if (la && lb) {  // Rule 1
      Emit(gen);
      return;
    }
    if (la && !lb) {  // Rule 2: skip b's middle, land on its last step.
      Path g = gen;
      g.Append(Axis::kChild, "*");
      GeneralizeStep(std::move(g), i, b.size() - 1);
      return;
    }
    if (!la && lb) {  // Rule 3: symmetric.
      Path g = gen;
      g.Append(Axis::kChild, "*");
      GeneralizeStep(std::move(g), a.size() - 1, j);
      return;
    }
    // Rule 4: both middle steps; a[i] and b[j] are already generalized
    // into genXPath, so the branches operate on the next unconsumed nodes.
    // (1) advance both.
    GeneralizeStep(gen, i + 1, j + 1);
    // (2) look for b[j+1]'s name beyond a[i+1]; aligning them records a's
    // skipped steps as a wildcard gap (widened to '//' by Rule 0).
    for (size_t k = i + 2; k < a.size(); ++k) {
      if (a[k].name_test == b[j + 1].name_test) {
        Path g = gen;
        g.Append(Axis::kChild, "*");
        GeneralizeStep(std::move(g), k, j + 1);
        break;
      }
    }
    // (3) symmetric: a[i+1]'s name further in b.
    for (size_t k = j + 2; k < b.size(); ++k) {
      if (b[k].name_test == a[i + 1].name_test) {
        Path g = gen;
        g.Append(Axis::kChild, "*");
        GeneralizeStep(std::move(g), i + 1, k);
        break;
      }
    }
  }
};

}  // namespace

xpath::Path RewriteWildcardRuns(const xpath::Path& path) {
  const auto& steps = path.steps();
  std::vector<Step> out;
  bool pending_descendant = false;
  for (size_t i = 0; i < steps.size(); ++i) {
    const bool last = (i + 1 == steps.size());
    if (!last && steps[i].is_wildcard()) {
      // Drop the interior wildcard; the next kept step becomes descendant.
      pending_descendant = true;
      continue;
    }
    Step s = steps[i];
    if (pending_descendant) {
      s.axis = Axis::kDescendant;
      pending_descendant = false;
    }
    out.push_back(std::move(s));
  }
  return Path(std::move(out));
}

std::vector<xpath::Path> GeneralizePair(const xpath::Path& a,
                                        const xpath::Path& b) {
  if (a.empty() || b.empty()) return {};
  Generalizer g{a.steps(), b.steps(), {}, {}, 4096};
  g.GeneralizeStep(Path(), 0, 0);
  return std::move(g.results);
}

GeneralizeStats GeneralizeCandidates(CandidateSet* set) {
  GeneralizeStats stats;
  // Each round pairs every candidate with those appended by the previous
  // round; all earlier pairs were processed already.
  size_t processed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.rounds;
    const size_t n = set->candidates.size();
    for (size_t x = 0; x < n; ++x) {
      for (size_t y = std::max(x + 1, processed); y < n; ++y) {
        if (!SameIndexKind((*set)[x], (*set)[y])) continue;
        ++stats.pairs_considered;
        // Copy the pair's fields: appending generalized candidates below
        // reallocates the vector, so references into it must not be held
        // across the push_back.
        const std::string collection = (*set)[x].collection;
        const xpath::IndexPattern pattern_x = (*set)[x].pattern;
        const xpath::IndexPattern pattern_y = (*set)[y].pattern;

        for (const xpath::Path& gen :
             GeneralizePair(pattern_x.path, pattern_y.path)) {
          const xpath::IndexPattern pattern{gen, pattern_x.type,
                                            pattern_x.structural};
          if (set->Find(collection, pattern) >= 0) continue;
          // Skip generalizations equivalent to an input (e.g. generalizing
          // a pattern with a pattern it already covers).
          if (xpath::Equivalent(gen, pattern_x.path) ||
              xpath::Equivalent(gen, pattern_y.path)) {
            continue;
          }
          Candidate c;
          c.id = static_cast<int>(set->candidates.size());
          c.collection = collection;
          c.pattern = pattern;
          c.is_general = true;
          // Coverage and affected sets from the basic candidates.
          for (size_t b = 0; b < set->basic_count; ++b) {
            const Candidate& basic = (*set)[b];
            if (!SameIndexKind(basic, c)) continue;
            if (xpath::Covers(c.pattern.path, basic.pattern.path)) {
              c.covered_basics.push_back(basic.id);
              for (size_t s : basic.affected) {
                if (std::find(c.affected.begin(), c.affected.end(), s) ==
                    c.affected.end()) {
                  c.affected.push_back(s);
                }
              }
            }
          }
          std::sort(c.affected.begin(), c.affected.end());
          set->candidates.push_back(std::move(c));
          ++stats.generated;
          changed = true;
        }
      }
    }
    processed = n;
  }
  return stats;
}

}  // namespace xia::advisor
