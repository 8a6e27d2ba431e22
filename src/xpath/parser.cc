#include "xpath/parser.h"

#include <cctype>

#include "util/string_util.h"

namespace xia::xpath {

namespace {

class PathParser {
 public:
  explicit PathParser(std::string_view text) : text_(text) {}

  Result<PathQuery> ParseQueryTop() {
    PathQuery query;
    XIA_RETURN_IF_ERROR(ParseSteps(&query));
    if (pos_ != text_.size()) return Error("trailing characters");
    if (query.empty()) return Error("empty path");
    return query;
  }

 private:
  Status Error(const std::string& why) const {
    return Status::ParseError(StringPrintf(
        "xpath parse error at offset %zu in \"%.*s\": %s", pos_,
        static_cast<int>(text_.size()), text_.data(), why.c_str()));
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(char c) {
    if (!Eof() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void SkipSpace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> ParseNameTest() {
    if (Consume('*')) return std::string("*");
    std::string prefix;
    if (Consume('@')) prefix = "@";
    if (Eof() || !(std::isalpha(static_cast<unsigned char>(Peek())) ||
                   Peek() == '_')) {
      return Error("expected name test");
    }
    const size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    return prefix + std::string(text_.substr(start, pos_ - start));
  }

  // Parses the axis marker. Returns true on success and sets *axis.
  bool ParseAxis(Axis* axis) {
    if (!Consume('/')) return false;
    *axis = Consume('/') ? Axis::kDescendant : Axis::kChild;
    return true;
  }

  Status ParseSteps(PathQuery* query) {
    Axis axis;
    if (!ParseAxis(&axis)) return Error("path must start with '/' or '//'");
    for (;;) {
      auto name = ParseNameTest();
      if (!name.ok()) return name.status();
      QueryStep qs;
      qs.step = Step(axis, *name);
      while (!Eof() && Peek() == '[') {
        auto pred = ParsePredicate();
        if (!pred.ok()) return pred.status();
        qs.predicates.push_back(std::move(*pred));
      }
      query->Append(std::move(qs));
      if (Eof()) return Status::OK();
      if (!ParseAxis(&axis)) return Status::OK();
    }
  }

  Result<Predicate> ParsePredicate() {
    if (!Consume('[')) return Error("expected '['");
    SkipSpace();
    Predicate pred;
    // Relative path: '.', './/a/b', 'a/b', './a'.
    if (Consume('.')) {
      if (Consume('/')) {
        const Axis first = Consume('/') ? Axis::kDescendant : Axis::kChild;
        XIA_RETURN_IF_ERROR(ParseRelSteps(first, &pred.relative_steps));
      }
      // bare '.' => empty relative path (the step's own value).
    } else {
      XIA_RETURN_IF_ERROR(ParseRelSteps(Axis::kChild, &pred.relative_steps));
    }
    SkipSpace();
    if (Consume(']')) return pred;  // existence predicate
    // Comparison operator.
    CompareOp op;
    if (Consume('=')) {
      op = CompareOp::kEq;
    } else if (Consume('!')) {
      if (!Consume('=')) return Error("expected '!='");
      op = CompareOp::kNe;
    } else if (Consume('<')) {
      op = Consume('=') ? CompareOp::kLe : CompareOp::kLt;
    } else if (Consume('>')) {
      op = Consume('=') ? CompareOp::kGe : CompareOp::kGt;
    } else {
      return Error("expected comparison operator or ']'");
    }
    pred.op = op;
    SkipSpace();
    auto lit = ParseLiteral();
    if (!lit.ok()) return lit.status();
    pred.literal = std::move(*lit);
    SkipSpace();
    if (!Consume(']')) return Error("expected ']'");
    return pred;
  }

  Status ParseRelSteps(Axis first_axis, std::vector<Step>* out) {
    Axis axis = first_axis;
    for (;;) {
      auto name = ParseNameTest();
      if (!name.ok()) return name.status();
      out->emplace_back(axis, *name);
      if (Eof() || Peek() != '/') return Status::OK();
      ++pos_;
      axis = Consume('/') ? Axis::kDescendant : Axis::kChild;
    }
  }

  Result<Literal> ParseLiteral() {
    if (Eof()) return Error("expected literal");
    const char c = Peek();
    if (c == '"' || c == '\'') {
      ++pos_;
      const size_t start = pos_;
      while (!Eof() && Peek() != c) ++pos_;
      if (Eof()) return Error("unterminated string literal");
      std::string s(text_.substr(start, pos_ - start));
      ++pos_;
      return Literal::String(std::move(s));
    }
    // Number: [+-]?[digits.]+([eE][+-]?digits)?
    const size_t len = NumericTokenLength(text_.substr(pos_));
    if (len == 0) return Error("expected numeric or string literal");
    double v = 0;
    if (!ParseDouble(text_.substr(pos_, len), &v)) {
      return Error("malformed number");
    }
    pos_ += len;
    return Literal::Number(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<PathQuery> ParseQuery(std::string_view text) {
  return PathParser(text).ParseQueryTop();
}

Result<Path> ParsePattern(std::string_view text) {
  auto query = ParseQuery(text);
  if (!query.ok()) return query.status();
  if (!query->IsLinear()) {
    return Status::InvalidArgument(
        "index patterns must be linear (predicate-free) paths: " +
        std::string(text));
  }
  return query->Spine();
}

}  // namespace xia::xpath
