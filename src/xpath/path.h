// Linear XPath path expressions and predicate-bearing path queries.
//
// Two levels of path language appear in the paper and therefore here:
//
//  * Path — a *linear* XPath expression with child (/) and descendant (//)
//    axes and name tests that may be wildcards (*), and no predicates.
//    Index patterns are Paths ("indexes that are represented by index
//    patterns expressed as linear XPath path expressions that do not
//    include predicates", §III).
//
//  * PathQuery — a location path whose steps may carry comparison or
//    existence predicates at arbitrary locations; workload queries use
//    these ("the XPath expressions in our query workload can contain
//    predicates at arbitrary locations", §III).

#ifndef XIA_XPATH_PATH_H_
#define XIA_XPATH_PATH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/tag.h"

namespace xia::xpath {

/// Navigation axis of a step.
enum class Axis : uint8_t {
  kChild = 0,       ///< "/"
  kDescendant = 1,  ///< "//" (descendant-or-self::node()/child:: shorthand)
};

/// One step of a linear path: an axis plus a name test.
///
/// The name test is held only in interned form, fixed at construction (no
/// call site mutates it), and the wildcard bit is computed once here:
/// matching a label, comparing two steps and hashing a step all work on
/// the tag (a pointer compare, or its dense id), never on the text. Text
/// is read only to render or to order paths.
struct Step {
  Axis axis = Axis::kChild;
  /// Element tag, "@name" for attributes, or "*" for the wildcard test.
  xml::Tag name_test;

  Step() = default;
  Step(Axis a, xml::Tag name)
      : axis(a), name_test(name), wildcard_(name == WildcardTag()) {}
  Step(Axis a, std::string_view name) : Step(a, xml::Tag(name)) {}

  bool is_wildcard() const { return wildcard_; }
  /// True if this step's name test accepts `label`.
  bool MatchesLabel(const xml::Tag& label) const {
    return wildcard_ || name_test == label;
  }
  /// The same for a label given by its tag id (a document record's).
  bool MatchesLabelId(uint32_t label_id) const {
    return wildcard_ || name_test.id() == label_id;
  }
  /// Text form, for labels that are not interned (tests, seed baselines).
  bool MatchesLabel(std::string_view label) const {
    return wildcard_ || name_test == label;
  }

  bool operator==(const Step& o) const {
    return axis == o.axis && name_test == o.name_test;
  }

 private:
  /// The interned "*".
  static const xml::Tag& WildcardTag();

  bool wildcard_ = false;
};

/// Data type of the values an index stores; mirrors DB2's
/// "AS SQL VARCHAR / AS SQL DOUBLE" index type clause. Candidates of
/// different types never generalize together (§V).
enum class ValueType : uint8_t {
  kString = 0,
  kNumeric = 1,
};

const char* ValueTypeToString(ValueType t);

/// A linear, predicate-free path expression. Always absolute (anchored at
/// the document root).
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<Step> steps) : steps_(std::move(steps)) {}

  const std::vector<Step>& steps() const { return steps_; }
  std::vector<Step>& steps() { return steps_; }
  size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }
  const Step& step(size_t i) const { return steps_[i]; }
  const Step& last() const { return steps_.back(); }

  void Append(Axis axis, std::string_view name) {
    steps_.emplace_back(axis, name);
  }

  /// Renders "/Security//*" style text.
  std::string ToString() const;

  /// True if this is the universal pattern "//*".
  bool IsUniversal() const {
    return steps_.size() == 1 && steps_[0].axis == Axis::kDescendant &&
           steps_[0].is_wildcard();
  }

  /// Number of wildcard steps plus descendant axes — a crude generality
  /// measure used for tie-breaking and reporting.
  int GeneralityScore() const;

  /// True if the path contains no wildcard and no descendant axis, i.e. it
  /// denotes exactly one label path.
  bool IsConcrete() const;

  bool operator==(const Path& o) const { return steps_ == o.steps_; }
  bool operator<(const Path& o) const;

 private:
  std::vector<Step> steps_;
};

/// Comparison operators usable in predicates.
enum class CompareOp : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpToString(CompareOp op);

/// A typed literal value appearing in a predicate.
struct Literal {
  ValueType type = ValueType::kString;
  std::string string_value;
  double numeric_value = 0.0;

  static Literal String(std::string s) {
    Literal l;
    l.type = ValueType::kString;
    l.string_value = std::move(s);
    return l;
  }
  static Literal Number(double d) {
    Literal l;
    l.type = ValueType::kNumeric;
    l.numeric_value = d;
    return l;
  }

  std::string ToString() const;
  bool operator==(const Literal& o) const;
};

/// A predicate attached to a step: either an existence test
/// [rel/path] or a comparison [rel/path op literal]. The relative path may
/// be empty, meaning the predicate applies to the step's own value
/// (e.g. /Security/Symbol[. = "BCIIPRC"]).
struct Predicate {
  /// Steps relative to the step the predicate is attached to. The first
  /// step's axis distinguishes [a/b ...] from [.//b ...].
  std::vector<Step> relative_steps;
  /// nullopt => pure existence predicate.
  std::optional<CompareOp> op;
  Literal literal;

  bool is_comparison() const { return op.has_value(); }
  std::string ToString() const;
  bool operator==(const Predicate& o) const;
};

/// One step of a PathQuery: a Step plus attached predicates.
struct QueryStep {
  Step step;
  std::vector<Predicate> predicates;

  bool operator==(const QueryStep& o) const;
};

/// An absolute location path with optional predicates at arbitrary steps.
class PathQuery {
 public:
  PathQuery() = default;
  explicit PathQuery(std::vector<QueryStep> steps) : steps_(std::move(steps)) {}

  const std::vector<QueryStep>& steps() const { return steps_; }
  std::vector<QueryStep>& steps() { return steps_; }
  size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  void Append(QueryStep s) { steps_.push_back(std::move(s)); }

  /// The predicate-free linear spine of this query path.
  Path Spine() const;

  /// True if no step carries a predicate.
  bool IsLinear() const;

  std::string ToString() const;

  bool operator==(const PathQuery& o) const { return steps_ == o.steps_; }

 private:
  std::vector<QueryStep> steps_;
};

/// An index pattern: a linear path plus the value type it indexes. This is
/// the unit the advisor reasons about ("candidate index").
///
/// A *structural* pattern indexes node reachability only (no values): it
/// contains one entry per node reachable by the path, valued or not, and
/// serves existence predicates (§III's structural index category). The
/// value type of a structural pattern is ignored.
struct IndexPattern {
  Path path;
  ValueType type = ValueType::kString;
  bool structural = false;

  std::string ToString() const;
  bool operator==(const IndexPattern& o) const {
    return structural == o.structural && path == o.path &&
           (structural || type == o.type);
  }
  bool operator<(const IndexPattern& o) const {
    if (structural != o.structural) return structural < o.structural;
    if (!structural && type != o.type) return type < o.type;
    return path < o.path;
  }
};

}  // namespace xia::xpath

#endif  // XIA_XPATH_PATH_H_
