// Tree-walking evaluation of path queries over xml::Document.
//
// This is the "ground truth" evaluator: the execution engine uses it for
// collection scans and residual predicate checking, tests use it as the
// reference against index-based plans, and the statistics collector uses
// the linear fast path.

#ifndef XIA_XPATH_EVALUATOR_H_
#define XIA_XPATH_EVALUATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "xml/document.h"
#include "xpath/path.h"

namespace xia::xpath {

/// Nodes of `doc` selected by the linear pattern `path`, in document order.
std::vector<xml::NodeIndex> EvaluateLinear(const xml::Document& doc,
                                           const Path& path);

/// As EvaluateLinear, but clears and fills `*out` instead of returning a
/// fresh vector. Bulk callers (index key extraction over whole
/// collections) reuse one scratch buffer across documents to avoid a
/// heap allocation per document.
void EvaluateLinearInto(const xml::Document& doc, const Path& path,
                        std::vector<xml::NodeIndex>* out);

/// Nodes of `doc` selected by `query`, predicates included, in document
/// order. Comparison predicates use XPath existential semantics: a step
/// node qualifies if at least one node reached by the predicate's relative
/// path satisfies the comparison.
std::vector<xml::NodeIndex> Evaluate(const xml::Document& doc,
                                     const PathQuery& query);

/// Node buffers for evaluating one query over many documents. A caller
/// holds one per call (scan, candidate loop) and passes it to every
/// document; the buffers keep their capacity, so the steady state
/// allocates nothing. Not shared: concurrent callers each hold their own.
struct EvalScratch {
  /// Result of the last EvaluateInto.
  std::vector<xml::NodeIndex> nodes;
  /// Working space, swapped with `nodes` between steps.
  std::vector<xml::NodeIndex> spare;
};

/// As Evaluate, but leaves the result in `out->nodes`, reusing `out`'s
/// buffers instead of returning a fresh vector.
void EvaluateInto(const xml::Document& doc, const PathQuery& query,
                  EvalScratch* out);

/// True if `doc` has at least one node selected by `query`. Stops at the
/// first qualifying node of the last step.
bool Exists(const xml::Document& doc, const PathQuery& query);
/// As Exists, with the earlier steps' node sets kept in `scratch`.
bool Exists(const xml::Document& doc, const PathQuery& query,
            EvalScratch* scratch);

/// Evaluates a single comparison between a node's text value and a literal.
/// Numeric comparisons coerce the node value; non-numeric node values never
/// satisfy a numeric comparison. String comparisons are lexicographic.
bool CompareValue(std::string_view node_value, CompareOp op,
                  const Literal& literal);

}  // namespace xia::xpath

#endif  // XIA_XPATH_EVALUATOR_H_
