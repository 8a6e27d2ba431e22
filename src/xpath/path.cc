#include "xpath/path.h"

#include "util/string_util.h"

namespace xia::xpath {

const xml::Tag& Step::WildcardTag() {
  static const xml::Tag wildcard("*");
  return wildcard;
}

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kString:
      return "string";
    case ValueType::kNumeric:
      return "numeric";
  }
  return "?";
}

std::string Path::ToString() const {
  std::string out;
  for (const auto& s : steps_) {
    out += (s.axis == Axis::kChild) ? "/" : "//";
    out += s.name_test.view();
  }
  return out;
}

int Path::GeneralityScore() const {
  int score = 0;
  for (const auto& s : steps_) {
    if (s.is_wildcard()) ++score;
    if (s.axis == Axis::kDescendant) score += 2;
  }
  return score;
}

bool Path::IsConcrete() const {
  for (const auto& s : steps_) {
    if (s.is_wildcard() || s.axis == Axis::kDescendant) return false;
  }
  return true;
}

bool Path::operator<(const Path& o) const {
  const size_t n = std::min(steps_.size(), o.steps_.size());
  for (size_t i = 0; i < n; ++i) {
    if (steps_[i].axis != o.steps_[i].axis) {
      return steps_[i].axis < o.steps_[i].axis;
    }
    if (steps_[i].name_test != o.steps_[i].name_test) {
      return steps_[i].name_test < o.steps_[i].name_test;  // text order
    }
  }
  return steps_.size() < o.steps_.size();
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Literal::ToString() const {
  if (type == ValueType::kNumeric) {
    // Every digit reading back needs, so a statement's text re-parses to
    // the same literal (the lexers accept FormatDouble's exponent form).
    return FormatDouble(numeric_value);
  }
  return "\"" + string_value + "\"";
}

bool Literal::operator==(const Literal& o) const {
  if (type != o.type) return false;
  return type == ValueType::kNumeric ? numeric_value == o.numeric_value
                                     : string_value == o.string_value;
}

std::string Predicate::ToString() const {
  std::string out = "[";
  if (relative_steps.empty()) {
    out += ".";
  } else {
    for (size_t i = 0; i < relative_steps.size(); ++i) {
      const Step& s = relative_steps[i];
      if (i == 0) {
        // [a ...] for child axis, [.//a ...] for descendant axis.
        if (s.axis == Axis::kDescendant) out += ".//";
      } else {
        out += (s.axis == Axis::kChild) ? "/" : "//";
      }
      out += s.name_test.view();
    }
  }
  if (op.has_value()) {
    out += " ";
    out += CompareOpToString(*op);
    out += " ";
    out += literal.ToString();
  }
  out += "]";
  return out;
}

bool Predicate::operator==(const Predicate& o) const {
  return relative_steps == o.relative_steps && op == o.op &&
         (!op.has_value() || literal == o.literal);
}

bool QueryStep::operator==(const QueryStep& o) const {
  return step == o.step && predicates == o.predicates;
}

Path PathQuery::Spine() const {
  std::vector<Step> steps;
  steps.reserve(steps_.size());
  for (const auto& qs : steps_) steps.push_back(qs.step);
  return Path(std::move(steps));
}

bool PathQuery::IsLinear() const {
  for (const auto& qs : steps_) {
    if (!qs.predicates.empty()) return false;
  }
  return true;
}

std::string PathQuery::ToString() const {
  std::string out;
  for (const auto& qs : steps_) {
    out += (qs.step.axis == Axis::kChild) ? "/" : "//";
    out += qs.step.name_test.view();
    for (const auto& p : qs.predicates) out += p.ToString();
  }
  return out;
}

std::string IndexPattern::ToString() const {
  return path.ToString() + " (" +
         (structural ? "structural" : ValueTypeToString(type)) + ")";
}

}  // namespace xia::xpath
