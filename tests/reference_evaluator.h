// Reference evaluator for the differential checks in xpath_evaluator_test:
// the tree-walking Evaluate/Exists and the strtod-only ParseDouble that the
// allocation-free, short-circuiting versions in xpath/evaluator.cc and
// util/string_util.cc replaced, kept verbatim except that CompareValue
// calls the reference ParseDouble. Test-only; the production functions
// must agree with these on every input — the same nodes in the same
// order, the same booleans, the same accepted strings and the same bits.

#ifndef XIA_TESTS_REFERENCE_EVALUATOR_H_
#define XIA_TESTS_REFERENCE_EVALUATOR_H_

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "xml/document.h"
#include "xpath/path.h"

namespace xia::reference {

using ::xia::xpath::Axis;
using ::xia::xpath::CompareOp;
using ::xia::xpath::Literal;
using ::xia::xpath::PathQuery;
using ::xia::xpath::Predicate;
using ::xia::xpath::QueryStep;
using ::xia::xpath::Step;
using ::xia::xpath::ValueType;

inline std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

inline bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

inline void EvalSteps(const xml::Document& doc, xml::NodeIndex start,
                      const std::vector<Step>& steps, size_t step_index,
                      std::vector<xml::NodeIndex>* out);

inline void EvalStepFromChildren(const xml::Document& doc,
                                 xml::NodeIndex parent,
                                 const std::vector<Step>& steps,
                                 size_t step_index, bool descend,
                                 std::vector<xml::NodeIndex>* out) {
  const Step& step = steps[step_index];
  for (xml::NodeIndex c : doc.children(parent)) {
    const xml::Node& child = doc.node(c);
    if (step.MatchesLabel(child.label)) {
      if (step_index + 1 == steps.size()) {
        out->push_back(c);
      } else {
        EvalSteps(doc, c, steps, step_index + 1, out);
      }
    }
    if (descend && child.is_element()) {
      EvalStepFromChildren(doc, c, steps, step_index, /*descend=*/true, out);
    }
  }
}

inline void EvalSteps(const xml::Document& doc, xml::NodeIndex start,
                      const std::vector<Step>& steps, size_t step_index,
                      std::vector<xml::NodeIndex>* out) {
  const Step& step = steps[step_index];
  const bool descend = step.axis == Axis::kDescendant;
  EvalStepFromChildren(doc, start, steps, step_index, descend, out);
}

inline void EvalAbsolute(const xml::Document& doc,
                         const std::vector<Step>& steps,
                         std::vector<xml::NodeIndex>* out) {
  if (doc.empty() || steps.empty()) return;
  const Step& first = steps[0];
  const xml::NodeIndex root = doc.root();
  if (first.MatchesLabel(doc.node(root).label)) {
    if (steps.size() == 1) {
      out->push_back(root);
    } else {
      EvalSteps(doc, root, steps, 1, out);
    }
  }
  if (first.axis == Axis::kDescendant) {
    EvalStepFromChildren(doc, root, steps, 0, /*descend=*/true, out);
  }
}

inline void SortUnique(std::vector<xml::NodeIndex>* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

inline bool CompareValue(const std::string& node_value, CompareOp op,
                         const Literal& literal) {
  if (literal.type == ValueType::kNumeric) {
    double v = 0;
    if (!ParseDouble(node_value, &v)) return false;
    switch (op) {
      case CompareOp::kEq:
        return v == literal.numeric_value;
      case CompareOp::kNe:
        return v != literal.numeric_value;
      case CompareOp::kLt:
        return v < literal.numeric_value;
      case CompareOp::kLe:
        return v <= literal.numeric_value;
      case CompareOp::kGt:
        return v > literal.numeric_value;
      case CompareOp::kGe:
        return v >= literal.numeric_value;
    }
    return false;
  }
  const int cmp = node_value.compare(literal.string_value);
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

inline bool PredicateHolds(const xml::Document& doc, xml::NodeIndex n,
                           const Predicate& pred) {
  std::vector<xml::NodeIndex> targets;
  if (pred.relative_steps.empty()) {
    targets.push_back(n);
  } else {
    EvalSteps(doc, n, pred.relative_steps, 0, &targets);
  }
  if (!pred.is_comparison()) return !targets.empty();
  for (xml::NodeIndex t : targets) {
    if (CompareValue(doc.node(t).value, *pred.op, pred.literal)) return true;
  }
  return false;
}

inline std::vector<xml::NodeIndex> Evaluate(const xml::Document& doc,
                                            const PathQuery& query) {
  std::vector<xml::NodeIndex> current;
  if (doc.empty() || query.empty()) return current;

  for (size_t i = 0; i < query.size(); ++i) {
    const QueryStep& qs = query.steps()[i];
    std::vector<xml::NodeIndex> next;
    const std::vector<Step> single = {qs.step};
    if (i == 0) {
      EvalAbsolute(doc, single, &next);
    } else {
      for (xml::NodeIndex n : current) {
        EvalSteps(doc, n, single, 0, &next);
      }
    }
    SortUnique(&next);
    if (!qs.predicates.empty()) {
      std::vector<xml::NodeIndex> filtered;
      for (xml::NodeIndex n : next) {
        bool ok = true;
        for (const auto& pred : qs.predicates) {
          if (!PredicateHolds(doc, n, pred)) {
            ok = false;
            break;
          }
        }
        if (ok) filtered.push_back(n);
      }
      next = std::move(filtered);
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

inline bool Exists(const xml::Document& doc, const PathQuery& query) {
  return !Evaluate(doc, query).empty();
}

}  // namespace xia::reference

#endif  // XIA_TESTS_REFERENCE_EVALUATOR_H_
