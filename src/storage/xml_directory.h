// Bulk load of an XML directory tree: DIR/<collection>/*.xml.
//
// The shell's `load` and `xia_advise --data` both read this layout; each
// prints its own summary of what was loaded.

#ifndef XIA_STORAGE_XML_DIRECTORY_H_
#define XIA_STORAGE_XML_DIRECTORY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"

namespace xia::storage {

struct LoadedCollection {
  std::string name;
  size_t documents = 0;
};

/// Creates one collection per subdirectory of `dir`, adds its `*.xml`
/// files as documents (collections and files in name order) and runs
/// statistics on it. Fails with kNotFound when `dir` is not a directory,
/// kParseError naming the file for a malformed document, and
/// kInvalidArgument for a collection directory without `.xml` files or a
/// tree without collections.
Result<std::vector<LoadedCollection>> LoadXmlDirectory(
    const std::string& dir, DocumentStore* store,
    StatisticsCatalog* statistics);

}  // namespace xia::storage

#endif  // XIA_STORAGE_XML_DIRECTORY_H_
