// XML data model.
//
// A Document stores its nodes as one pre-order array of compact records
// plus a per-document values arena (see xml/document.h). Node indices are
// stable for the lifetime of the document, so (document id, node index)
// pairs — NodeRef — serve as the record identifiers stored in indexes,
// mirroring the (docid, nodeid) RIDs of native XML stores.

#ifndef XIA_XML_NODE_H_
#define XIA_XML_NODE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "xml/tag.h"

namespace xia::xml {

/// Kind of a node in the simplified XML data model. Data-centric XML (the
/// kind TPoX and XMark produce) is element text + attributes; we do not
/// model processing instructions or comments.
enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,
};

/// Index of a node within its document: its pre-order rank.
using NodeIndex = int32_t;

/// Sentinel for "no node" (e.g. the parent of the root).
inline constexpr NodeIndex kInvalidNode = -1;

/// A node's text: a view into its document's values arena. It reads like
/// a std::string_view, and it also converts implicitly to std::string, so
/// code that keeps a value (in a vector of strings, as a map key) copies
/// it out just by its type. The view is invalidated by the next mutation
/// of the document.
class NodeValue : public std::string_view {
 public:
  NodeValue() = default;
  NodeValue(std::string_view v) : std::string_view(v) {}  // NOLINT
  operator std::string() const { return std::string(data(), size()); }
};

/// Read-only view of one node, assembled from its record and the values
/// arena by Document::node(). Element values hold the concatenated
/// immediate text content (mixed content is concatenated, which is
/// sufficient for data-centric documents). Attribute nodes have label
/// "@name". Hot paths read single fields through Document's accessors
/// instead of building the whole view.
struct Node {
  NodeKind kind = NodeKind::kElement;
  /// Element tag name, or "@name" for attributes. Interned: comparing two
  /// labels is a pointer compare.
  Tag label;
  /// Text content (elements) or attribute value (attributes).
  NodeValue value;
  NodeIndex parent = kInvalidNode;
  /// One past the node's last descendant.
  NodeIndex end = kInvalidNode;

  bool is_element() const { return kind == NodeKind::kElement; }
  bool is_attribute() const { return kind == NodeKind::kAttribute; }
};

/// Identifier of a document within a DocumentStore.
using DocId = int32_t;

/// A record identifier: a node within a stored document. This is what XML
/// indexes map values to.
struct NodeRef {
  DocId doc = -1;
  NodeIndex node = kInvalidNode;

  bool operator==(const NodeRef& o) const {
    return doc == o.doc && node == o.node;
  }
  bool operator<(const NodeRef& o) const {
    if (doc != o.doc) return doc < o.doc;
    return node < o.node;
  }
};

}  // namespace xia::xml

#endif  // XIA_XML_NODE_H_
