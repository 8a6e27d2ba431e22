#include "advisor/generalize.h"

#include <algorithm>

#include "xpath/containment.h"

namespace xia::advisor {

namespace {

using xpath::Axis;
using xpath::Path;
using xpath::Step;

// The wildcard step a skipped stretch of steps generalizes to.
const Step& WildcardStep() {
  static const Step wildcard(Axis::kChild, "*");
  return wildcard;
}

// Recursion state for Algorithm 1: positions i, j into the step lists of
// the two patterns being generalized. The generalized path built so far is
// one stack of steps shared by the whole recursion; each call pushes its
// steps and pops them before it returns, so a branch sees exactly the
// prefix its caller built.
struct Generalizer {
  // One generalized step: an axis plus the step whose name test it keeps
  // (an input step, or WildcardStep()).
  struct GenStep {
    Axis axis;
    const Step* name;
  };

  const std::vector<Step>& a;
  const std::vector<Step>& b;
  std::vector<GenStep> stack;
  std::vector<GenStep> rewritten;  // Emit's scratch
  std::vector<Path> results;       // deduplicated by step equality
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

  // Rule 1: applies Rule 0 (RewriteWildcardRuns) to the stack and records
  // the result unless an equal path was recorded already.
  void Emit() {
    rewritten.clear();
    bool pending_descendant = false;
    for (size_t k = 0; k < stack.size(); ++k) {
      GenStep step = stack[k];
      if (k + 1 != stack.size() && step.name->is_wildcard()) {
        pending_descendant = true;
        continue;
      }
      if (pending_descendant) {
        step.axis = Axis::kDescendant;
        pending_descendant = false;
      }
      rewritten.push_back(step);
    }
    for (const Path& seen : results) {
      if (seen.size() != rewritten.size()) continue;
      bool equal = true;
      for (size_t k = 0; k < rewritten.size() && equal; ++k) {
        equal = seen.step(k).axis == rewritten[k].axis &&
                seen.step(k).name_test == rewritten[k].name->name_test;
      }
      if (equal) return;
    }
    std::vector<Step> steps;
    steps.reserve(rewritten.size());
    for (const GenStep& step : rewritten) {
      steps.push_back(*step.name);
      steps.back().axis = step.axis;
    }
    results.emplace_back(std::move(steps));
  }

  // Algorithm 1: generalize current nodes, then advance.
  void GeneralizeStep(size_t i, size_t j) {
    if (--budget < 0) return;
    const size_t mark = stack.size();
    if (IsLastA(i) == IsLastB(j)) {
      // Equal name tests are kept, differing ones widen to '*'.
      const Step* name =
          a[i].name_test == b[j].name_test ? &a[i] : &WildcardStep();
      stack.push_back({GenAxis(a[i].axis, b[j].axis), name});
    }
    AdvanceStep(i, j);
    stack.resize(mark);
  }

  // A wildcard gap, then GeneralizeStep(i, j).
  void GapThenStep(size_t i, size_t j) {
    stack.push_back({Axis::kChild, &WildcardStep()});
    GeneralizeStep(i, j);
    stack.pop_back();
  }

  // Table II.
  void AdvanceStep(size_t i, size_t j) {
    if (--budget < 0) return;
    const bool la = IsLastA(i);
    const bool lb = IsLastB(j);
    if (la && lb) {  // Rule 1
      Emit();
      return;
    }
    if (la && !lb) {  // Rule 2: skip b's middle, land on its last step.
      GapThenStep(i, b.size() - 1);
      return;
    }
    if (!la && lb) {  // Rule 3: symmetric.
      GapThenStep(a.size() - 1, j);
      return;
    }
    // Rule 4: both middle steps; a[i] and b[j] are already generalized
    // into genXPath, so the branches operate on the next unconsumed nodes.
    // (1) advance both.
    GeneralizeStep(i + 1, j + 1);
    // (2) look for b[j+1]'s name beyond a[i+1]; aligning them records a's
    // skipped steps as a wildcard gap (widened to '//' by Rule 0).
    for (size_t k = i + 2; k < a.size(); ++k) {
      if (a[k].name_test == b[j + 1].name_test) {
        GapThenStep(k, j + 1);
        break;
      }
    }
    // (3) symmetric: a[i+1]'s name further in b.
    for (size_t k = j + 2; k < b.size(); ++k) {
      if (b[k].name_test == a[i + 1].name_test) {
        GapThenStep(i + 1, k);
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
  Generalizer g{a.steps(), b.steps(), {}, {}, {}, 4096};
  g.GeneralizeStep(0, 0);
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
        std::vector<xpath::Path> generalized = GeneralizePair(
            (*set)[x].pattern.path, (*set)[y].pattern.path);
        for (xpath::Path& gen : generalized) {
          // Appending a candidate below reallocates the vector: x and y
          // are looked up afresh for every generalization.
          const Candidate& cx = (*set)[x];
          const Candidate& cy = (*set)[y];
          xpath::IndexPattern pattern{std::move(gen), cx.pattern.type,
                                      cx.pattern.structural};
          if (set->Find(cx.collection, pattern) >= 0) continue;
          // Skip generalizations equivalent to an input (e.g. generalizing
          // a pattern with a pattern it already covers).
          if (xpath::Equivalent(pattern.path, cx.pattern.path) ||
              xpath::Equivalent(pattern.path, cy.pattern.path)) {
            continue;
          }
          Candidate c;
          c.id = static_cast<int>(set->candidates.size());
          c.collection = cx.collection;
          c.pattern = std::move(pattern);
          c.is_general = true;
          // Coverage and affected sets from the basic candidates.
          for (size_t b = 0; b < set->basic_count; ++b) {
            const Candidate& basic = (*set)[b];
            if (!SameIndexKind(basic, c)) continue;
            if (xpath::Covers(c.pattern.path, basic.pattern.path)) {
              c.covered_basics.push_back(basic.id);
              c.affected.insert(c.affected.end(), basic.affected.begin(),
                                basic.affected.end());
            }
          }
          std::sort(c.affected.begin(), c.affected.end());
          c.affected.erase(std::unique(c.affected.begin(), c.affected.end()),
                           c.affected.end());
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
