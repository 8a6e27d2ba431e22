// Interned tag names.
//
// XML element/attribute labels are a handful of distinct strings repeated
// millions of times (a 1 GB TPoX load has ~50 distinct tags across ~10^8
// nodes). Tag stores one pointer into a process-wide intern pool instead of
// a per-node std::string: a Node shrinks by 24 bytes, label construction
// during parse is a hash probe instead of a heap allocation, and equality
// between two Tags is a pointer compare. Interned strings are never freed —
// the pool holds the distinct tag vocabulary, which is tiny and stable.
//
// Each interned string also gets a dense id (0, 1, 2, ... in interning
// order), so code that groups or hashes labels can index a flat array or
// mix 4 bytes instead of walking the text, and a document record stores
// its label in 4 bytes (FromId turns an id back into its Tag). Ids are a
// process-local numbering, never a sort key: anything that orders or
// renders labels uses the text (operator< compares text).
//
// Tag converts implicitly to `const std::string&` (exactly one user-defined
// conversion, so every std::string-consuming call site keeps compiling),
// while construction *from* text is explicit — interning does a pool probe
// and should be visible at the call site.

#ifndef XIA_XML_TAG_H_
#define XIA_XML_TAG_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace xia::xml {

/// An interned label. Copying is pointer-sized; comparing is pointer
/// equality (the pool guarantees equal text <=> same entry).
class Tag {
 public:
  /// The empty tag (does not allocate).
  Tag() : e_(EmptyEntry()) {}

  explicit Tag(std::string_view text) : e_(Intern(text)) {}

  Tag& operator=(std::string_view text) {
    e_ = Intern(text);
    return *this;
  }

  /// The interned string; valid for the process lifetime.
  operator const std::string&() const { return e_->text; }
  const std::string& str() const { return e_->text; }
  std::string_view view() const { return e_->text; }
  const char* c_str() const { return e_->text.c_str(); }

  /// Dense id of the interned string: equal text <=> equal id, and every
  /// id is below PoolSize().
  uint32_t id() const { return e_->id; }

  /// The tag whose id() is `id`, which must come from an existing Tag.
  /// Lock-free: a document record stores a label as its 4-byte id.
  static Tag FromId(uint32_t id);

  size_t size() const { return e_->text.size(); }
  bool empty() const { return e_->text.empty(); }
  char operator[](size_t i) const { return e_->text[i]; }
  std::string substr(size_t pos, size_t n = std::string::npos) const {
    return e_->text.substr(pos, n);
  }

  friend bool operator==(const Tag& a, const Tag& b) { return a.e_ == b.e_; }
  friend bool operator!=(const Tag& a, const Tag& b) { return a.e_ != b.e_; }
  friend bool operator<(const Tag& a, const Tag& b) {
    return a.e_->text < b.e_->text;
  }

  // std::string's comparison/concatenation operators are templates and do
  // not deduce through Tag's conversion, so mixed-type forms are spelled
  // out here (C++20 synthesizes the reversed and != candidates).
  friend bool operator==(const Tag& a, std::string_view b) {
    return a.e_->text == b;
  }
  friend std::string operator+(const std::string& a, const Tag& b) {
    return a + b.e_->text;
  }
  friend std::string operator+(const Tag& a, const std::string& b) {
    return a.e_->text + b;
  }
  friend std::string operator+(const char* a, const Tag& b) {
    return a + b.e_->text;
  }
  friend std::string operator+(const Tag& a, const char* b) {
    return a.e_->text + b;
  }

  /// Number of distinct strings ever interned (for tests/metrics); one
  /// more than the largest id handed out so far.
  static size_t PoolSize();

  /// One interned string and its id; owned by the pool, never freed.
  struct Entry {
    std::string text;
    uint32_t id;
  };

 private:
  explicit Tag(const Entry* e) : e_(e) {}
  static const Entry* EmptyEntry();
  static const Entry* Intern(std::string_view text);

  const Entry* e_;
};

std::ostream& operator<<(std::ostream& os, const Tag& tag);

}  // namespace xia::xml

#endif  // XIA_XML_TAG_H_
