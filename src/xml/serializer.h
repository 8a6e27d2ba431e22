// XML serialization (pretty-printed or compact) for documents and subtrees.

#ifndef XIA_XML_SERIALIZER_H_
#define XIA_XML_SERIALIZER_H_

#include <string>

#include "xml/document.h"

namespace xia::xml {

/// Serialization options.
struct SerializeOptions {
  bool pretty = false;  ///< Indent children; otherwise compact single line.
  int indent_width = 2;
};

/// Serializes the subtree rooted at `node` (defaults to the whole document).
std::string Serialize(const Document& doc,
                      NodeIndex node = 0,
                      const SerializeOptions& options = {});

}  // namespace xia::xml

#endif  // XIA_XML_SERIALIZER_H_
