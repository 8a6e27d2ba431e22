#include "xml/parser.h"

#include <array>
#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace xia::xml {

namespace {

// Table-driven character classes: the scan loops below run once per byte
// of input, and a table load beats the locale-aware <cctype> calls. The
// tables reproduce the "C" locale exactly (ASCII only).
constexpr std::array<bool, 256> MakeNameStartTable() {
  std::array<bool, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[static_cast<size_t>(c)] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[static_cast<size_t>(c)] = true;
  t['_'] = t[':'] = true;
  return t;
}
constexpr std::array<bool, 256> MakeNameCharTable() {
  std::array<bool, 256> t = MakeNameStartTable();
  for (int c = '0'; c <= '9'; ++c) t[static_cast<size_t>(c)] = true;
  t['-'] = t['.'] = true;
  return t;
}
constexpr std::array<bool, 256> kNameStart = MakeNameStartTable();
constexpr std::array<bool, 256> kNameChar = MakeNameCharTable();

constexpr size_t kMaxDocumentBytes = (size_t{1} << 31) - 1;

inline bool IsSpaceByte(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

class ParserImpl {
 public:
  explicit ParserImpl(std::string_view text) : text_(text) {}

  Result<Document> Run() {
    // Values are slices of the input, so an input below 2 GiB keeps every
    // value and the whole values arena within the document's offset
    // limits.
    if (text_.size() > kMaxDocumentBytes) {
      return Error("document larger than 2 GiB");
    }
    SkipProlog();
    Document doc;
    // Pre-size the node array and values arena: compact data-centric XML
    // runs ~25-60 serialized bytes per node (tags + text + markup) and
    // well under half its bytes are text. Sizing at the dense end
    // over-reserves on sparse documents for the duration of the parse
    // (Collection::Add trims a stored document), but the common case
    // appends reallocation-free.
    doc.ReserveNodes(text_.size() / 24 + 8);
    doc.ReserveValues(text_.size() / 2);
    XIA_RETURN_IF_ERROR(ParseElement(&doc, kInvalidNode));
    SkipWhitespaceAndMisc();
    if (pos_ != text_.size()) {
      return Error("trailing content after document element");
    }
    return doc;
  }

 private:
  Status Error(const std::string& why) const {
    return Status::ParseError(
        StringPrintf("xml parse error at offset %zu: %s", pos_, why.c_str()));
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
  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!Eof() && IsSpaceByte(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  // Advances to the next occurrence of `c` (memchr, not a byte loop) and
  // returns true, or returns false at end of input with pos_ at the end.
  bool ScanTo(char c) {
    const void* hit = std::memchr(text_.data() + pos_, c, text_.size() - pos_);
    if (hit == nullptr) {
      pos_ = text_.size();
      return false;
    }
    pos_ = static_cast<size_t>(static_cast<const char*>(hit) - text_.data());
    return true;
  }

  // Skips <?...?>, <!--...-->, <!DOCTYPE...> and whitespace.
  void SkipWhitespaceAndMisc() {
    for (;;) {
      SkipWhitespace();
      if (ConsumeLiteral("<?")) {
        const size_t end = text_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 2;
      } else if (ConsumeLiteral("<!--")) {
        const size_t end = text_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 3;
      } else if (ConsumeLiteral("<!DOCTYPE")) {
        const size_t end = text_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? text_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  void SkipProlog() { SkipWhitespaceAndMisc(); }

  static bool IsNameStart(char c) {
    return kNameStart[static_cast<unsigned char>(c)];
  }
  static bool IsNameChar(char c) {
    return kNameChar[static_cast<unsigned char>(c)];
  }

  // Names are returned as views into the input; they are only ever
  // compared or interned, so the parse allocates nothing per name.
  Result<std::string_view> ParseName() {
    if (Eof() || !IsNameStart(Peek())) return Error("expected name");
    const size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  // Decodes the five predefined entities; unknown entities are kept verbatim.
  static std::string DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      const size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        out += raw[i++];
        continue;
      }
      const std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out += '<';
      } else if (ent == "gt") {
        out += '>';
      } else if (ent == "amp") {
        out += '&';
      } else if (ent == "quot") {
        out += '"';
      } else if (ent == "apos") {
        out += '\'';
      } else if (!ent.empty() && ent[0] == '#') {
        long code = 0;
        if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
          code = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
        } else {
          code = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
        }
        if (code > 0 && code < 128) {
          out += static_cast<char>(code);
        }
      } else {
        out.append(raw.substr(i, semi - i + 1));
      }
      i = semi + 1;
    }
    return out;
  }

  Status ParseAttributes(Document* doc, NodeIndex element) {
    for (;;) {
      SkipWhitespace();
      if (Eof()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return Status::OK();
      auto name = ParseName();
      if (!name.ok()) return name.status();
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' in attribute");
      SkipWhitespace();
      const char quote = Eof() ? '\0' : Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      ++pos_;
      const size_t start = pos_;
      if (!ScanTo(quote)) return Error("unterminated attribute value");
      const std::string_view raw = text_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      if (raw.find('&') == std::string_view::npos) {
        doc->AddAttribute(element, *name, raw);
      } else {
        doc->AddAttribute(element, *name, DecodeEntities(raw));
      }
    }
  }

  // Parses one element (start tag, content, end tag) and attaches it under
  // `parent` (or as the root when parent == kInvalidNode).
  Status ParseElement(Document* doc, NodeIndex parent) {
    if (!Consume('<')) return Error("expected '<'");
    auto name = ParseName();
    if (!name.ok()) return name.status();
    const NodeIndex element = (parent == kInvalidNode)
                                  ? doc->AddRoot(*name)
                                  : doc->AddElement(parent, *name);
    XIA_RETURN_IF_ERROR(ParseAttributes(doc, element));
    if (ConsumeLiteral("/>")) return Status::OK();
    if (!Consume('>')) return Error("expected '>'");

    // Leaf fast path: one entity-free text run straight into the close
    // tag — the overwhelming shape in data-centric XML. The value is set
    // from the input view with no intermediate accumulator string.
    {
      const size_t run_start = pos_;
      if (!ScanTo('<')) {
        return Error("unterminated element " + std::string(*name));
      }
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        const std::string_view raw =
            text_.substr(run_start, pos_ - run_start);
        if (raw.find('&') == std::string_view::npos) {
          pos_ += 2;
          auto close = ParseName();
          if (!close.ok()) return close.status();
          if (*close != *name) {
            return Error("mismatched close tag " + std::string(*close) +
                         " for " + std::string(*name));
          }
          SkipWhitespace();
          if (!Consume('>')) return Error("expected '>' after close tag");
          const std::string_view trimmed = Trim(raw);
          if (!trimmed.empty()) doc->SetValue(element, trimmed);
          return Status::OK();
        }
      }
      pos_ = run_start;  // mixed content or entities: general loop below
    }

    std::string text;
    for (;;) {
      if (Eof()) return Error("unterminated element " + std::string(*name));
      if (Peek() == '<') {
        if (ConsumeLiteral("</")) {
          auto close = ParseName();
          if (!close.ok()) return close.status();
          if (*close != *name) {
            return Error("mismatched close tag " + std::string(*close) +
                         " for " + std::string(*name));
          }
          SkipWhitespace();
          if (!Consume('>')) return Error("expected '>' after close tag");
          break;
        }
        if (ConsumeLiteral("<!--")) {
          const size_t end = text_.find("-->", pos_);
          if (end == std::string_view::npos) return Error("open comment");
          pos_ = end + 3;
          continue;
        }
        if (ConsumeLiteral("<![CDATA[")) {
          const size_t end = text_.find("]]>", pos_);
          if (end == std::string_view::npos) return Error("open CDATA");
          text.append(text_.substr(pos_, end - pos_));
          pos_ = end + 3;
          continue;
        }
        if (ConsumeLiteral("<?")) {
          const size_t end = text_.find("?>", pos_);
          if (end == std::string_view::npos) return Error("open PI");
          pos_ = end + 2;
          continue;
        }
        XIA_RETURN_IF_ERROR(ParseElement(doc, element));
      } else {
        const size_t start = pos_;
        ScanTo('<');
        const std::string_view raw = text_.substr(start, pos_ - start);
        // Entity-free text (the overwhelmingly common case) appends
        // without the DecodeEntities temporary. Leading whitespace-only
        // runs — the indentation between child elements — would be
        // trimmed away at the end anyway, so don't accumulate them.
        if (raw.find('&') == std::string_view::npos) {
          if (!text.empty() || !Trim(raw).empty()) text.append(raw);
        } else {
          text += DecodeEntities(raw);
        }
      }
    }
    const std::string_view trimmed = Trim(text);
    if (!trimmed.empty()) {
      doc->SetValue(element, trimmed);
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Document> Parse(std::string_view text) {
  return ParserImpl(text).Run();
}

}  // namespace xia::xml
