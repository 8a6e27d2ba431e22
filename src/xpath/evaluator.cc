#include "xpath/evaluator.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"
#include "xpath/walk.h"

namespace xia::xpath {

namespace {

// Node indexes are document order; walks from overlapping descendant
// contexts produce duplicates.
void SortUnique(std::vector<xml::NodeIndex>* nodes) {
  if (!std::is_sorted(nodes->begin(), nodes->end())) {
    std::sort(nodes->begin(), nodes->end());
  }
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

// True if node `n` satisfies predicate `pred`: some node reached by the
// relative path (or `n` itself) exists, or satisfies the comparison. The
// walk stops at the first such node.
bool PredicateHolds(const xml::Document& doc, xml::NodeIndex n,
                    const Predicate& pred) {
  auto qualifies = [&](xml::NodeIndex t) {
    return !pred.is_comparison() ||
           CompareValue(doc.value(t), *pred.op, pred.literal);
  };
  if (pred.relative_steps.empty()) return qualifies(n);
  return WalkSteps(doc, n, pred.relative_steps, 0, qualifies);
}

bool PredicatesHold(const xml::Document& doc, xml::NodeIndex n,
                    const std::vector<Predicate>& predicates) {
  for (const Predicate& pred : predicates) {
    if (!PredicateHolds(doc, n, pred)) return false;
  }
  return true;
}

// Evaluates the first `end` steps of `query` (non-empty, on a non-empty
// document) into scratch->nodes: one step at a time into scratch->spare,
// filtered by the step's predicates in place, then swapped.
void EvaluatePrefix(const xml::Document& doc, const PathQuery& query,
                    size_t end, EvalScratch* scratch) {
  std::vector<xml::NodeIndex>& current = scratch->nodes;
  std::vector<xml::NodeIndex>& next = scratch->spare;
  current.clear();
  for (size_t i = 0; i < end; ++i) {
    const QueryStep& qs = query.steps()[i];
    const Steps step(&qs.step, 1);
    next.clear();
    auto append = [&next](xml::NodeIndex c) {
      next.push_back(c);
      return false;
    };
    if (i == 0) {
      WalkAbsolute(doc, step, append);
    } else {
      for (xml::NodeIndex n : current) WalkSteps(doc, n, step, 0, append);
    }
    SortUnique(&next);
    if (!qs.predicates.empty()) {
      std::erase_if(next, [&](xml::NodeIndex n) {
        return !PredicatesHold(doc, n, qs.predicates);
      });
    }
    current.swap(next);
    if (current.empty()) return;
  }
}

}  // namespace

bool CompareValue(std::string_view node_value, CompareOp op,
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

std::vector<xml::NodeIndex> EvaluateLinear(const xml::Document& doc,
                                           const Path& path) {
  std::vector<xml::NodeIndex> out;
  EvaluateLinearInto(doc, path, &out);
  return out;
}

void EvaluateLinearInto(const xml::Document& doc, const Path& path,
                        std::vector<xml::NodeIndex>* out) {
  out->clear();
  if (doc.empty() || path.empty()) return;
  auto append = [out](xml::NodeIndex c) {
    out->push_back(c);
    return false;
  };
  WalkAbsolute(doc, path.steps(), append);
  SortUnique(out);
}

std::vector<xml::NodeIndex> Evaluate(const xml::Document& doc,
                                     const PathQuery& query) {
  EvalScratch scratch;
  EvaluateInto(doc, query, &scratch);
  return std::move(scratch.nodes);
}

void EvaluateInto(const xml::Document& doc, const PathQuery& query,
                  EvalScratch* out) {
  out->nodes.clear();
  if (doc.empty() || query.empty()) return;
  EvaluatePrefix(doc, query, query.size(), out);
}

bool Exists(const xml::Document& doc, const PathQuery& query) {
  EvalScratch scratch;
  return Exists(doc, query, &scratch);
}

bool Exists(const xml::Document& doc, const PathQuery& query,
            EvalScratch* scratch) {
  if (doc.empty() || query.empty()) return false;
  // Every step but the last is evaluated in full; the last one streams its
  // candidates and stops at the first that passes its predicates.
  const size_t last = query.size() - 1;
  EvaluatePrefix(doc, query, last, scratch);
  if (last > 0 && scratch->nodes.empty()) return false;
  const QueryStep& qs = query.steps()[last];
  const Steps step(&qs.step, 1);
  auto qualifies = [&](xml::NodeIndex c) {
    return PredicatesHold(doc, c, qs.predicates);
  };
  if (last == 0) return WalkAbsolute(doc, step, qualifies);
  for (xml::NodeIndex n : scratch->nodes) {
    if (WalkSteps(doc, n, step, 0, qualifies)) return true;
  }
  return false;
}

}  // namespace xia::xpath
