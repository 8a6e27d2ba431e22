// The tree walk under every path evaluation: linear index patterns, query
// steps, predicate paths and the executor's return expressions.
//
// Steps are taken as a span, so callers walk a single query step or a
// suffix of a path in place. The walk visits the nodes the last step
// reaches in pre-order, once per path that reaches them (no
// deduplication), and stops as soon as the visitor returns true. It
// allocates nothing; whatever the visitor collects is the caller's.

#ifndef XIA_XPATH_WALK_H_
#define XIA_XPATH_WALK_H_

#include <span>

#include "xml/document.h"
#include "xpath/path.h"

namespace xia::xpath {

using Steps = std::span<const Step>;

template <typename Visit>
bool WalkSteps(const xml::Document& doc, xml::NodeIndex start, Steps steps,
               size_t step_index, Visit& visit);

// Walks the steps [step_index..end) from the children of `parent`, calling
// `visit(node)` for every node the last step reaches, in pre-order and
// without deduplication. `descend` handles a pending descendant axis: when
// true, steps[step_index] may match at any depth below `parent`. Returns
// true — and stops walking — as soon as `visit` returns true.
//
// Nodes are stored in pre-order with their subtree ends, so the children
// of `parent` are reached by hopping from subtree end to subtree end, and
// its descendants are simply the index range (parent, end(parent)).
template <typename Visit>
bool WalkFrom(const xml::Document& doc, xml::NodeIndex parent, Steps steps,
              size_t step_index, bool descend, Visit& visit) {
  const Step& step = steps[step_index];
  const bool last = step_index + 1 == steps.size();
  const xml::NodeIndex end = doc.end(parent);
  for (xml::NodeIndex c = parent + 1; c < end;
       c = descend ? c + 1 : doc.end(c)) {
    if (step.MatchesLabelId(doc.label_id(c)) &&
        (last ? visit(c) : WalkSteps(doc, c, steps, step_index + 1, visit))) {
      return true;
    }
  }
  return false;
}

// Walks the steps [step_index..end) relative to `start`; steps[step_index]
// carries its own axis.
template <typename Visit>
bool WalkSteps(const xml::Document& doc, xml::NodeIndex start, Steps steps,
               size_t step_index, Visit& visit) {
  return WalkFrom(doc, start, steps, step_index,
                  steps[step_index].axis == Axis::kDescendant, visit);
}

// Walks an absolute path: the first step tests the root element itself
// (the document node is the implicit origin).
template <typename Visit>
bool WalkAbsolute(const xml::Document& doc, Steps steps, Visit& visit) {
  const Step& first = steps[0];
  const xml::NodeIndex root = doc.root();
  // Child axis from the document node: only the root element.
  if (first.MatchesLabelId(doc.label_id(root)) &&
      (steps.size() == 1 ? visit(root)
                         : WalkSteps(doc, root, steps, 1, visit))) {
    return true;
  }
  // '//' from the document node also reaches any deeper node.
  return first.axis == Axis::kDescendant &&
         WalkFrom(doc, root, steps, 0, /*descend=*/true, visit);
}

}  // namespace xia::xpath

#endif  // XIA_XPATH_WALK_H_
