// In-memory XML document: a pre-order array of compact node records plus
// a values arena, rooted at index 0.

#ifndef XIA_XML_DOCUMENT_H_
#define XIA_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node.h"

namespace xia::xml {

/// An XML document. Nodes are stored in pre-order (document order) as
/// 20-byte records; each record carries its parent and the end of its
/// subtree (one past its last descendant), so a node's children are
/// reached by hopping from subtree end to subtree end:
///
///   for (c = n + 1; c < end(n); c = end(c))
///
/// Values (element text, attribute values) live in one per-document
/// arena and are read as views. The root element is node 0 once the
/// document is non-empty.
///
/// Builder contract: nodes are appended in pre-order. A new node's parent
/// must be an element on the open path — the last node added or one of
/// its ancestors. Any other parent is a program bug (asserted in debug
/// builds); release builds reject it by returning kInvalidNode and adding
/// nothing. Construction is append-only, which keeps NodeIndex values
/// stable (a requirement for index RIDs).
class Document {
 private:
  /// One node's stored record: 20 bytes. The label is its tag's id; the
  /// value is an (offset, size) slice of values_; the node kind rides in
  /// the size word's top bit.
  struct Record {
    uint32_t label = 0;
    NodeIndex parent = kInvalidNode;
    NodeIndex end = kInvalidNode;
    uint32_t value_offset = 0;
    uint32_t value_size : 31 = 0;
    uint32_t attribute : 1 = 0;
  };
  static_assert(sizeof(Record) == 20, "node records are 20 bytes");

 public:
  Document() = default;

  /// Pre-sizes the node array (e.g. from a serialized-byte heuristic) so
  /// a build appends without reallocating log2(n) times.
  void ReserveNodes(size_t n) { nodes_.reserve(n); }
  /// Pre-sizes the values arena.
  void ReserveValues(size_t bytes) { values_.reserve(bytes); }
  /// Releases spare node and arena capacity (a resident document keeps
  /// only what it holds).
  void ShrinkToFit();

  /// Creates the root element. Must be the first node added.
  NodeIndex AddRoot(std::string_view label);

  /// Appends a child element under `parent` (an element on the open
  /// path) and returns its index, or kInvalidNode if `parent` is not.
  NodeIndex AddElement(NodeIndex parent, std::string_view label,
                       std::string_view value = "") {
    return Append(parent, Tag(label), value, /*attribute=*/false);
  }

  /// Appends an attribute node under `parent`; label is stored as "@name".
  NodeIndex AddAttribute(NodeIndex parent, std::string_view name,
                         std::string_view value);

  /// True if `parent` is on the open path: the last node or one of its
  /// ancestors, exactly the nodes whose subtrees still end at the end of
  /// the array. A new node's parent must also be an element.
  bool OnOpenPath(NodeIndex parent) const {
    return parent >= 0 && static_cast<size_t>(parent) < nodes_.size() &&
           static_cast<size_t>(nodes_[static_cast<size_t>(parent)].end) ==
               nodes_.size();
  }

  /// Sets the text value of a node. A value no longer than the current
  /// one is rewritten in place; a longer one is appended to the arena,
  /// which is compacted once its dead bytes exceed its live bytes.
  void SetValue(NodeIndex node, std::string_view value);

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  NodeIndex root() const { return nodes_.empty() ? kInvalidNode : 0; }

  /// A read-only view of node `i` (all fields). Hot paths use the single
  /// field accessors below.
  Node node(NodeIndex i) const {
    const Record& r = rec(i);
    return {r.attribute ? NodeKind::kAttribute : NodeKind::kElement,
            Tag::FromId(r.label), ValueOf(r), r.parent, r.end};
  }

  Tag label(NodeIndex i) const { return Tag::FromId(rec(i).label); }
  /// The label's tag id: what matching compares, without the tag lookup.
  uint32_t label_id(NodeIndex i) const { return rec(i).label; }
  NodeValue value(NodeIndex i) const { return ValueOf(rec(i)); }
  NodeIndex parent(NodeIndex i) const { return rec(i).parent; }
  /// One past the last descendant of `i`.
  NodeIndex end(NodeIndex i) const { return rec(i).end; }
  bool is_element(NodeIndex i) const { return !rec(i).attribute; }
  bool is_attribute(NodeIndex i) const { return rec(i).attribute; }
  bool has_children(NodeIndex i) const { return rec(i).end > i + 1; }

  /// Iterable view over a node's children in document order, hopping
  /// from subtree end to subtree end: `for (NodeIndex c : doc.children(n))`.
  class ChildRange {
   public:
    class iterator {
     public:
      iterator(const Record* nodes, NodeIndex cur)
          : nodes_(nodes), cur_(cur) {}
      NodeIndex operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = nodes_[cur_].end;
        return *this;
      }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }

     private:
      const Record* nodes_;
      NodeIndex cur_;
    };
    ChildRange(const Record* nodes, NodeIndex first, NodeIndex end)
        : nodes_(nodes), first_(first), end_(end) {}
    iterator begin() const { return {nodes_, first_}; }
    iterator end() const { return {nodes_, end_}; }

   private:
    const Record* nodes_;
    NodeIndex first_;
    NodeIndex end_;
  };
  ChildRange children(NodeIndex i) const {
    return {nodes_.data(), i + 1, end(i)};
  }

  /// Number of children of `i` (linear in the child count; convenience
  /// for tests and diagnostics, not for hot paths).
  size_t ChildCount(NodeIndex i) const {
    size_t n = 0;
    for (NodeIndex c : children(i)) {
      (void)c;
      ++n;
    }
    return n;
  }

  /// Root-to-node sequence of labels, e.g. {"Security","SecInfo","Sector"}.
  std::vector<Tag> LabelPath(NodeIndex i) const;

  /// Same but rendered as "/Security/SecInfo/Sector".
  std::string LabelPathString(NodeIndex i) const;

  /// Depth of the node (root = 1).
  int Depth(NodeIndex i) const;

  /// Total bytes of labels + values; used by the storage layer to model
  /// page consumption. Maintained incrementally by the mutators above, so
  /// reading it is O(1) — Collection::Add/Remove/Mutate call it per
  /// document operation.
  size_t ApproximateByteSize() const { return approx_bytes_; }

  /// Bytes the values arena holds, live and dead (for tests/diagnostics).
  size_t ValueArenaBytes() const { return values_.size(); }

 private:
  const Record& rec(NodeIndex i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  NodeValue ValueOf(const Record& r) const {
    return std::string_view(values_.data() + r.value_offset, r.value_size);
  }

  /// Accounting charge for a node: tag pair + value + per-node structural
  /// overhead (pointers, offsets) comparable to a native store's node
  /// record. Labels are interned in memory but still charged — the model
  /// tracks serialized size.
  static size_t NodeBytes(size_t label_size, size_t value_size) {
    return 2 * label_size + value_size + 16;
  }

  NodeIndex Append(NodeIndex parent, Tag label, std::string_view value,
                   bool attribute);
  /// Appends `value` to the arena and points `r` at it.
  void AppendValue(Record* r, std::string_view value);
  /// True if `value` points into the arena (and would dangle if the arena
  /// reallocated while it is being copied).
  bool InArena(std::string_view value) const {
    const auto at = reinterpret_cast<uintptr_t>(value.data());
    const auto base = reinterpret_cast<uintptr_t>(values_.data());
    return at >= base && at < base + values_.size();
  }
  /// Rewrites the arena holding only live values, in node order.
  void CompactValues();

  std::vector<Record> nodes_;
  std::string values_;
  /// Arena bytes no node refers to any more (overwritten or outgrown).
  size_t dead_value_bytes_ = 0;
  size_t approx_bytes_ = 0;
};

}  // namespace xia::xml

#endif  // XIA_XML_DOCUMENT_H_
