#include "storage/xml_directory.h"

#include <algorithm>
#include <filesystem>

#include "util/atomic_file.h"
#include "xml/parser.h"

namespace xia::storage {

namespace fs = std::filesystem;

namespace {

/// The entries of `dir` that pass `keep`, sorted by path.
template <typename Keep>
std::vector<fs::path> SortedEntries(const fs::path& dir, Keep keep) {
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (keep(entry)) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

Result<std::vector<LoadedCollection>> LoadXmlDirectory(
    const std::string& dir, DocumentStore* store,
    StatisticsCatalog* statistics) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("data directory not found: " + dir);
  }
  std::vector<LoadedCollection> loaded;
  const auto is_dir = [](const fs::directory_entry& e) {
    return e.is_directory();
  };
  for (const fs::path& coll_dir : SortedEntries(dir, is_dir)) {
    const std::string name = coll_dir.filename().string();
    const std::vector<fs::path> files =
        SortedEntries(coll_dir, [](const fs::directory_entry& e) {
          return e.is_regular_file() && e.path().extension() == ".xml";
        });
    if (files.empty()) {
      return Status::InvalidArgument("collection directory " + name +
                                     " has no .xml files");
    }
    XIA_ASSIGN_OR_RETURN(Collection * coll, store->CreateCollection(name));
    for (const fs::path& file : files) {
      XIA_ASSIGN_OR_RETURN(const std::string text, ReadFile(file.string()));
      Result<xml::Document> doc = xml::Parse(text);
      if (!doc.ok()) {
        return Status::ParseError(file.string() + ": " +
                                  doc.status().message());
      }
      coll->Add(std::move(*doc));
    }
    statistics->RunStats(*coll);
    loaded.push_back({name, files.size()});
  }
  if (loaded.empty()) {
    return Status::InvalidArgument(
        "no collections found (expected DIR/<collection>/*.xml)");
  }
  return loaded;
}

}  // namespace xia::storage
