#include "xml/serializer.h"

#include <string_view>

namespace xia::xml {

namespace {

void AppendEscaped(std::string_view raw, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      case '&':
        out->append("&amp;");
        break;
      case '"':
        out->append("&quot;");
        break;
      default:
        out->push_back(c);
    }
  }
}

void SerializeNode(const Document& doc, NodeIndex idx,
                   const SerializeOptions& options, int depth,
                   std::string* out) {
  const Tag& label = doc.label(idx);
  const NodeValue value = doc.value(idx);
  const std::string pad =
      options.pretty ? std::string(static_cast<size_t>(depth) *
                                       static_cast<size_t>(options.indent_width),
                                   ' ')
                     : std::string();
  out->append(pad);
  out->push_back('<');
  out->append(label);
  // Attributes first, then element children: two passes over the
  // children, each in document order.
  bool has_element_children = false;
  for (NodeIndex c : doc.children(idx)) {
    if (doc.is_attribute(c)) {
      out->push_back(' ');
      out->append(doc.label(c).view().substr(1));
      out->append("=\"");
      AppendEscaped(doc.value(c), out);
      out->push_back('"');
    } else {
      has_element_children = true;
    }
  }
  if (!has_element_children && value.empty()) {
    out->append("/>");
    if (options.pretty) out->push_back('\n');
    return;
  }
  out->push_back('>');
  AppendEscaped(value, out);
  if (has_element_children) {
    if (options.pretty) out->push_back('\n');
    for (NodeIndex c : doc.children(idx)) {
      if (doc.is_element(c)) SerializeNode(doc, c, options, depth + 1, out);
    }
    out->append(pad);
  }
  out->append("</");
  out->append(label);
  out->push_back('>');
  if (options.pretty) out->push_back('\n');
}

}  // namespace

std::string Serialize(const Document& doc, NodeIndex node,
                      const SerializeOptions& options) {
  std::string out;
  if (!doc.empty()) SerializeNode(doc, node, options, 0, &out);
  return out;
}

}  // namespace xia::xml
