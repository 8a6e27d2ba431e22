#include "xpath/containment.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace xia::xpath {

namespace {

// NFA view of a pattern P with steps s1..sn. State i (0..n) means "matched
// the first i steps"; state n accepts. On symbol c:
//   * i -> i+1 if s_{i+1}.MatchesLabel(c)
//   * i -> i   if s_{i+1}.axis == descendant  (the gap absorbs c)
// A DFA state is the set of NFA states, packed into a uint64_t bitmask
// (patterns are short; 63 steps is ample).
using StateSet = uint64_t;

constexpr size_t kMaxSteps = 63;

// The bits of `within` whose step i+1 of `p` accepts `label`; only those
// steps compare labels, each by its interned tag.
StateSet LabelMask(const Path& p, const xml::Tag& label,
                   StateSet within = ~StateSet{0}) {
  StateSet mask = 0;
  const auto& steps = p.steps();
  within &= (StateSet{1} << steps.size()) - 1;
  for (; within != 0; within &= within - 1) {
    const int i = std::countr_zero(within);
    if (steps[static_cast<size_t>(i)].MatchesLabel(label)) {
      mask |= StateSet{1} << i;
    }
  }
  return mask;
}

// Bit i set when step i+1 of `p` accepts a fresh symbol, one `p` never
// mentions: only wildcards do.
StateSet FreshMask(const Path& p) {
  StateSet mask = 0;
  const auto& steps = p.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].is_wildcard()) mask |= StateSet{1} << i;
  }
  return mask;
}

// Bit i set when step i+1 of `p` is a descendant step.
StateSet DescendantMask(const Path& p) {
  StateSet mask = 0;
  const auto& steps = p.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].axis == Axis::kDescendant) mask |= StateSet{1} << i;
  }
  return mask;
}

// Advances every NFA state in `states` on a symbol whose label mask is
// `match`. State n (all steps matched) is in neither mask, so it has no
// outgoing transitions: a longer path selects a *descendant* of the
// matched node, not the node itself.
StateSet StepOn(StateSet states, StateSet match, StateSet descendant) {
  return ((states & match) << 1) | (states & descendant);
}

// A set of DFA states as a flat array. Families stay small for realistic
// patterns, so a linear dedup beats a tree and the inline buffer keeps the
// common case off the heap. The buffer is left uninitialized: only slots
// below size_ are ever read, and Covers builds two families per call.
class StateFamily {
 public:
  size_t size() const { return size_; }
  StateSet operator[](size_t i) const { return data()[i]; }
  const StateSet* begin() const { return data(); }
  const StateSet* end() const { return data() + size_; }

  void Insert(StateSet s) {
    if (std::find(begin(), end(), s) != end()) return;
    if (size_ == kInline) heap_.assign(inline_.begin(), inline_.end());
    if (size_ >= kInline) {
      heap_.push_back(s);
    } else {
      inline_[size_] = s;
    }
    ++size_;
  }

  void Clear() {
    size_ = 0;
    heap_.clear();
  }

 private:
  static constexpr size_t kInline = 32;

  const StateSet* data() const {
    return size_ > kInline ? heap_.data() : inline_.data();
  }

  std::array<StateSet, kInline> inline_;
  std::vector<StateSet> heap_;
  size_t size_ = 0;
};

// True if `p` (at most kMaxSteps steps) matches the label path
// label(0), ..., label(n - 1).
template <typename LabelAt>
bool MatchesLabels(const Path& p, size_t n, LabelAt&& label) {
  const StateSet descendant = DescendantMask(p);
  StateSet states = 1;  // NFA state 0
  for (size_t i = 0; i < n; ++i) {
    states = StepOn(states, LabelMask(p, label(i), states), descendant);
    if (states == 0) return false;
  }
  return (states & (StateSet{1} << p.size())) != 0;
}

}  // namespace

bool MatchesLabelPath(const Path& p, const std::vector<xml::Tag>& labels) {
  if (p.size() > kMaxSteps) return false;
  return MatchesLabels(p, labels.size(),
                       [&](size_t i) -> const xml::Tag& { return labels[i]; });
}

bool Covers(const Path& index, const Path& query) {
  XIA_OBS_COUNT("xia.xpath.containment.checks", 1);
  if (index.size() > kMaxSteps || query.size() > kMaxSteps) return false;
  // Exact shortcuts before the subset construction. A concrete query
  // denotes one label path, so containment is matching it. Any other
  // query denotes infinitely many (a wildcard admits every label, a
  // descendant gap every depth), which a concrete index, denoting one,
  // cannot hold. And every path of a pattern ends in its last step's
  // label, so a concrete last index step must be the query's.
  if (query.IsConcrete()) {
    return MatchesLabels(index, query.size(),
                         [&](size_t i) -> const xml::Tag& {
                           return query.step(i).name_test;
                         });
  }
  if (index.IsConcrete()) return false;
  if (!index.last().is_wildcard() &&
      (query.last().is_wildcard() ||
       query.last().name_test != index.last().name_test)) {
    return false;
  }
  const StateSet descendant = DescendantMask(index);
  const StateSet accept_bit = StateSet{1} << index.size();

  // One label mask per symbol class of the index's alphabet: each concrete
  // label it mentions plus one fresh symbol stand for every label, and
  // labels with equal masks step the automaton alike. Only the first
  // symbol_count slots are written and read.
  std::array<StateSet, kMaxSteps + 1> symbols;
  size_t symbol_count = 0;
  auto add_symbol = [&](StateSet mask) {
    if (std::find(symbols.begin(), symbols.begin() + symbol_count, mask) ==
        symbols.begin() + symbol_count) {
      symbols[symbol_count++] = mask;
    }
  };
  for (const Step& s : index.steps()) {
    if (!s.is_wildcard()) add_symbol(LabelMask(index, s.name_test));
  }
  add_symbol(FreshMask(index));

  // Family of DFA states reachable via some prefix generated by the steps of
  // `query` consumed so far. Containment holds iff every family member at
  // the end is accepting.
  StateFamily families[2];
  StateFamily* family = &families[0];
  StateFamily* next = &families[1];
  family->Insert(1);

  for (const auto& qs : query.steps()) {
    if (qs.axis == Axis::kDescendant) {
      // The gap can emit any number of arbitrary labels first: close the
      // family under every symbol, to a fixpoint (members appended during
      // the scan are scanned in turn).
      for (size_t i = 0; i < family->size(); ++i) {
        const StateSet s = (*family)[i];
        for (size_t k = 0; k < symbol_count; ++k) {
          family->Insert(StepOn(s, symbols[k], descendant));
        }
      }
    }
    next->Clear();
    if (qs.is_wildcard()) {
      // The query step emits any single label: branch over every symbol.
      for (StateSet s : *family) {
        for (size_t k = 0; k < symbol_count; ++k) {
          next->Insert(StepOn(s, symbols[k], descendant));
        }
      }
    } else {
      const StateSet match = LabelMask(index, qs.name_test);
      for (StateSet s : *family) next->Insert(StepOn(s, match, descendant));
    }
    std::swap(family, next);
  }

  for (StateSet s : *family) {
    if (!(s & accept_bit)) return false;
  }
  return true;
}

}  // namespace xia::xpath
