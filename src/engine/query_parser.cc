#include "engine/query_parser.h"

#include <cctype>
#include <string>

#include "util/string_util.h"
#include "xpath/parser.h"

namespace xia::engine {

namespace {

class StatementParser {
 public:
  explicit StatementParser(std::string_view text) : text_(text) {}

  Result<Statement> Run(double frequency, std::string_view label) {
    Statement stmt;
    stmt.frequency = frequency;
    stmt.label = std::string(label);
    stmt.text = std::string(Trim(text_));

    SkipSpace();
    if (ConsumeKeyword("for")) {
      auto q = ParseFlwor();
      if (!q.ok()) return q.status();
      stmt.body = std::move(*q);
      return stmt;
    }
    if (ConsumeKeyword("insert")) {
      if (!ConsumeKeyword("into")) return Error("expected 'into'");
      auto name = ParseIdentifier();
      if (!name.ok()) return name.status();
      SkipSpace();
      InsertSpec ins;
      ins.collection = *name;
      ins.document_text = std::string(Trim(text_.substr(pos_)));
      if (ins.document_text.empty()) {
        return Error("insert requires a document");
      }
      stmt.body = std::move(ins);
      return stmt;
    }
    if (ConsumeKeyword("update")) {
      auto name = ParseIdentifier();
      if (!name.ok()) return name.status();
      if (!ConsumeKeyword("set")) return Error("expected 'set'");
      XIA_ASSIGN_OR_RETURN(std::string_view target_text, TakePathText());
      auto target = xpath::ParsePattern(target_text);
      if (!target.ok()) return target.status();
      SkipSpace();
      if (Eof() || Peek() != '=') return Error("expected '='");
      ++pos_;
      auto literal = ParseLiteralToken();
      if (!literal.ok()) return literal.status();
      if (!ConsumeKeyword("where")) return Error("expected 'where'");
      SkipSpace();
      auto match = xpath::ParseQuery(Trim(text_.substr(pos_)));
      if (!match.ok()) return match.status();
      UpdateSpec upd;
      upd.collection = *name;
      upd.target = std::move(*target);
      upd.new_value = std::move(*literal);
      upd.match = std::move(*match);
      stmt.body = std::move(upd);
      return stmt;
    }
    if (ConsumeKeyword("delete")) {
      if (!ConsumeKeyword("from")) return Error("expected 'from'");
      auto name = ParseIdentifier();
      if (!name.ok()) return name.status();
      if (!ConsumeKeyword("where")) return Error("expected 'where'");
      SkipSpace();
      auto path = xpath::ParseQuery(Trim(text_.substr(pos_)));
      if (!path.ok()) return path.status();
      DeleteSpec del;
      del.collection = *name;
      del.match = std::move(*path);
      stmt.body = std::move(del);
      return stmt;
    }
    return Error("expected 'for', 'insert', 'update' or 'delete'");
  }

 private:
  Status Error(const std::string& why) const {
    return Status::ParseError(StringPrintf(
        "query parse error at offset %zu: %s", pos_, why.c_str()));
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void SkipSpace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  // Case-insensitive keyword match followed by a non-identifier char.
  bool ConsumeKeyword(std::string_view kw) {
    SkipSpace();
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(kw[i]))) {
        return false;
      }
    }
    const size_t after = pos_ + kw.size();
    if (after < text_.size() && IsIdentChar(text_[after])) return false;
    pos_ = after;
    return true;
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    if (Eof() || !IsIdentChar(Peek())) return Error("expected identifier");
    const size_t start = pos_;
    while (!Eof() && IsIdentChar(Peek())) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  // collection('NAME') or ANYNAME('NAME').
  Result<std::string> ParseCollectionRef() {
    XIA_ASSIGN_OR_RETURN(std::string fn, ParseIdentifier());
    (void)fn;  // the function name is decorative (SECURITY, ORDER, ...)
    SkipSpace();
    if (Eof() || Peek() != '(') return Error("expected '(' in collection ref");
    ++pos_;
    SkipSpace();
    if (Eof() || (Peek() != '\'' && Peek() != '"')) {
      return Error("expected quoted collection name");
    }
    const char quote = Peek();
    ++pos_;
    const size_t start = pos_;
    while (!Eof() && Peek() != quote) ++pos_;
    if (Eof()) return Error("unterminated collection name");
    std::string name(text_.substr(start, pos_ - start));
    ++pos_;
    SkipSpace();
    if (!Eof() && Peek() == ')') {
      ++pos_;
    } else {
      return Error("expected ')'");
    }
    return name;
  }

  // A run of path characters starting at '/'; stops at whitespace that is
  // not inside a predicate bracket, or at a clause keyword boundary.
  Result<std::string_view> TakePathText() {
    SkipSpace();
    if (Eof() || Peek() != '/') return Error("expected path");
    const size_t start = pos_;
    int depth = 0;
    while (!Eof()) {
      const char c = Peek();
      if (c == '[') ++depth;
      if (c == ']') {
        --depth;
        ++pos_;  // the bracket belongs to the path
        continue;
      }
      if (depth == 0) {
        // Outside predicates only path characters continue the path; this
        // stops cleanly at clause keywords, commas, and element-constructor
        // syntax like "{$v/Name}</Security>".
        const bool path_char = std::isalnum(static_cast<unsigned char>(c)) ||
                               c == '/' || c == '*' || c == '@' || c == '_' ||
                               c == '-' || c == '.' || c == ':' || c == '[';
        if (!path_char) break;
      }
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  // "$var" returning the bare name.
  Result<std::string> ParseVariable() {
    SkipSpace();
    if (Eof() || Peek() != '$') return Error("expected '$variable'");
    ++pos_;
    return ParseIdentifier();
  }

  // Relative steps after "$var", e.g. "/SecInfo/*/Sector" (may be empty).
  Result<std::vector<xpath::Step>> ParseRelativeAfterVariable() {
    std::vector<xpath::Step> steps;
    if (Eof() || Peek() != '/') return steps;
    // Reuse the xpath parser by parsing the remainder as an absolute path
    // over a synthetic text slice.
    auto path_text = TakePathText();
    if (!path_text.ok()) return path_text.status();
    auto parsed = xpath::ParseQuery(*path_text);
    if (!parsed.ok()) return parsed.status();
    if (!parsed->IsLinear()) {
      return Error("predicates are not allowed on variable-relative paths");
    }
    for (const auto& qs : parsed->steps()) steps.push_back(qs.step);
    return steps;
  }

  Result<xpath::Literal> ParseLiteralToken() {
    SkipSpace();
    if (Eof()) return Error("expected literal");
    const char c = Peek();
    if (c == '"' || c == '\'') {
      ++pos_;
      const size_t start = pos_;
      while (!Eof() && Peek() != c) ++pos_;
      if (Eof()) return Error("unterminated string");
      std::string s(text_.substr(start, pos_ - start));
      ++pos_;
      return xpath::Literal::String(std::move(s));
    }
    const size_t len = NumericTokenLength(text_.substr(pos_));
    double v = 0;
    if (len == 0 || !ParseDouble(text_.substr(pos_, len), &v)) {
      return Error("expected literal");
    }
    pos_ += len;
    return xpath::Literal::Number(v);
  }

  Result<xpath::CompareOp> ParseOp() {
    SkipSpace();
    if (Eof()) return Error("expected comparison operator");
    if (Peek() == '=') {
      ++pos_;
      return xpath::CompareOp::kEq;
    }
    if (Peek() == '!') {
      ++pos_;
      if (Eof() || Peek() != '=') return Error("expected '!='");
      ++pos_;
      return xpath::CompareOp::kNe;
    }
    if (Peek() == '<') {
      ++pos_;
      if (!Eof() && Peek() == '=') {
        ++pos_;
        return xpath::CompareOp::kLe;
      }
      return xpath::CompareOp::kLt;
    }
    if (Peek() == '>') {
      ++pos_;
      if (!Eof() && Peek() == '=') {
        ++pos_;
        return xpath::CompareOp::kGe;
      }
      return xpath::CompareOp::kGt;
    }
    return Error("expected comparison operator");
  }

  Result<QuerySpec> ParseFlwor() {
    QuerySpec q;
    XIA_ASSIGN_OR_RETURN(q.variable, ParseVariable());
    if (!ConsumeKeyword("in")) return Error("expected 'in'");
    SkipSpace();
    XIA_ASSIGN_OR_RETURN(q.collection, ParseCollectionRef());
    XIA_ASSIGN_OR_RETURN(std::string_view binding_text, TakePathText());
    auto binding = xpath::ParseQuery(binding_text);
    if (!binding.ok()) return binding.status();
    q.binding = std::move(*binding);

    if (ConsumeKeyword("where")) {
      for (;;) {
        WhereCondition cond;
        XIA_ASSIGN_OR_RETURN(std::string var, ParseVariable());
        if (var != q.variable) {
          return Error("unknown variable $" + var);
        }
        XIA_ASSIGN_OR_RETURN(cond.relative_steps, ParseRelativeAfterVariable());
        XIA_ASSIGN_OR_RETURN(cond.op, ParseOp());
        XIA_ASSIGN_OR_RETURN(cond.literal, ParseLiteralToken());
        q.where.push_back(std::move(cond));
        if (!ConsumeKeyword("and")) break;
      }
    }

    if (!ConsumeKeyword("return")) return Error("expected 'return'");
    // Extract every $var[/rel/path] from the remainder, ignoring element
    // constructor syntax around them.
    SkipSpace();
    while (!Eof()) {
      if (Peek() == '$') {
        XIA_ASSIGN_OR_RETURN(std::string var, ParseVariable());
        if (var != q.variable) return Error("unknown variable $" + var);
        XIA_ASSIGN_OR_RETURN(auto rel, ParseRelativeAfterVariable());
        q.returns.push_back(std::move(rel));
      } else {
        ++pos_;
      }
    }
    return q;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view text, double frequency,
                                 std::string_view label) {
  return StatementParser(text).Run(frequency, label);
}

namespace {

// Strips '#' comments (outside string literals) from one line.
std::string StripComment(std::string_view line) {
  bool in_string = false;
  char quote = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == quote) in_string = false;
    } else if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
    } else if (c == '#') {
      return std::string(line.substr(0, i));
    }
  }
  return std::string(line);
}

}  // namespace

Result<Workload> ParseWorkloadText(std::string_view text) {
  Workload workload;
  std::string pending;  // statement text accumulated so far
  double frequency = 1.0;
  std::string label;

  auto flush = [&]() -> Status {
    const std::string_view body = Trim(pending);
    if (body.empty()) return Status::OK();
    auto stmt = ParseStatement(body, frequency,
                               label.empty()
                                   ? StringPrintf("stmt-%zu",
                                                  workload.size() + 1)
                                   : label);
    if (!stmt.ok()) return stmt.status();
    workload.push_back(std::move(*stmt));
    pending.clear();
    frequency = 1.0;
    label.clear();
    return Status::OK();
  };

  for (const std::string& raw_line : Split(text, '\n')) {
    std::string line = StripComment(raw_line);
    std::string_view trimmed = Trim(line);
    // Annotations only apply before any statement text accumulates.
    while (Trim(pending).empty() && StartsWith(trimmed, "@")) {
      const size_t space = trimmed.find_first_of(" \t");
      const std::string_view ann = trimmed.substr(0, space);
      if (StartsWith(ann, "@freq=")) {
        double f = 0;
        if (!ParseDouble(ann.substr(6), &f) || f <= 0) {
          return Status::ParseError("bad @freq annotation: " +
                                    std::string(ann));
        }
        frequency = f;
      } else if (StartsWith(ann, "@label=")) {
        label = std::string(ann.substr(7));
      } else {
        return Status::ParseError("unknown annotation: " + std::string(ann));
      }
      trimmed = space == std::string_view::npos ? std::string_view()
                                                : Trim(trimmed.substr(space));
    }
    // Accumulate, splitting on ';' outside string literals.
    bool in_string = false;
    char quote = 0;
    for (const char c : trimmed) {
      if (in_string) {
        pending += c;
        if (c == quote) in_string = false;
        continue;
      }
      if (c == '"' || c == '\'') {
        in_string = true;
        quote = c;
        pending += c;
      } else if (c == ';') {
        XIA_RETURN_IF_ERROR(flush());
      } else {
        pending += c;
      }
    }
    pending += ' ';
  }
  XIA_RETURN_IF_ERROR(flush());
  if (workload.empty()) {
    return Status::InvalidArgument("workload contains no statements");
  }
  return workload;
}

}  // namespace xia::engine
