// The document store: named collections of XML documents.
//
// Models a table with an XML-typed column (DB2 pureXML style). Documents
// are addressed by DocId within their collection; page accounting mirrors a
// disk-resident store so the optimizer can cost collection scans.

#ifndef XIA_STORAGE_DOCUMENT_STORE_H_
#define XIA_STORAGE_DOCUMENT_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/cost_constants.h"
#include "util/status.h"
#include "xml/document.h"

namespace xia::storage {

/// One named collection of documents (a table's XML column).
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a document, returning its DocId. Deleted slots are not reused,
  /// so DocIds stay stable (as RIDs must).
  xml::DocId Add(xml::Document doc);

  /// Marks a document deleted. Returns NotFound if absent or already
  /// deleted.
  Status Remove(xml::DocId id);

  /// Appends a dead slot (a DocId that was assigned and deleted). Used by
  /// snapshot restore to reproduce DocIds exactly.
  xml::DocId AddTombstone() {
    docs_.emplace_back(nullptr);
    return static_cast<xml::DocId>(docs_.size() - 1);
  }

  /// True if the id addresses a live document.
  bool IsLive(xml::DocId id) const;

  /// The document; id must be live.
  const xml::Document& Get(xml::DocId id) const;

  /// Mutates a live document in place via `fn(xml::Document*)`, keeping the
  /// collection's byte/node accounting consistent. The mutation must not
  /// remove nodes (NodeIndex stability is required by index RIDs).
  template <typename Fn>
  void Mutate(xml::DocId id, Fn&& fn) {
    xml::Document* doc = docs_[static_cast<size_t>(id)].get();
    total_bytes_ -= doc->ApproximateByteSize();
    total_nodes_ -= doc->size();
    fn(doc);
    total_bytes_ += doc->ApproximateByteSize();
    total_nodes_ += doc->size();
  }

  /// Number of live documents.
  size_t live_count() const { return live_count_; }
  /// Highest assigned id + 1 (iteration bound).
  xml::DocId id_bound() const { return static_cast<xml::DocId>(docs_.size()); }

  /// Total bytes of live documents.
  size_t total_bytes() const { return total_bytes_; }
  /// Pages a scan of this collection touches.
  size_t pages(const CostConstants& cc) const {
    return total_bytes_ / cc.page_size + 1;
  }
  /// Total live nodes across documents.
  size_t total_nodes() const { return total_nodes_; }
  /// Average nodes per live document.
  double avg_nodes_per_doc() const {
    return live_count_ == 0
               ? 0.0
               : static_cast<double>(total_nodes_) /
                     static_cast<double>(live_count_);
  }

  /// Calls `fn(id, doc)` for every live document.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (docs_[i] != nullptr) {
        fn(static_cast<xml::DocId>(i), *docs_[i]);
      }
    }
  }

  /// Like ForEach, but `fn` returns bool: false stops the iteration.
  /// Lets deadline-aware scans bail out mid-collection.
  template <typename Fn>
  void ForEachWhile(Fn&& fn) const {
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (docs_[i] != nullptr) {
        if (!fn(static_cast<xml::DocId>(i), *docs_[i])) return;
      }
    }
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<xml::Document>> docs_;
  size_t live_count_ = 0;
  size_t total_bytes_ = 0;
  size_t total_nodes_ = 0;
};

/// The store: a registry of collections.
class DocumentStore {
 public:
  /// Frees every collection, then returns the free heap pages to the OS.
  /// A dropped store (a recovery or resync's old state after Swap, a
  /// snapshot's staging store, a closed Database) is tens of MB; left on
  /// the allocator's free lists its pages stay resident and later
  /// allocations pile on top of them.
  ~DocumentStore();

  /// Creates a collection; fails if the name exists.
  Result<Collection*> CreateCollection(const std::string& name);

  /// Looks up a collection by name.
  Result<Collection*> GetCollection(const std::string& name);
  Result<const Collection*> GetCollection(const std::string& name) const;

  /// Names of all collections.
  std::vector<std::string> CollectionNames() const;

  /// Removes a collection and its documents; a no-op for an unknown name.
  void DropCollection(const std::string& name) { collections_.erase(name); }

  /// Exchanges the full contents of two stores. Snapshot restore loads
  /// into a staging store and swaps on success, so a failed load never
  /// leaves `this` partially mutated.
  void Swap(DocumentStore* other) { collections_.swap(other->collections_); }

 private:
  std::map<std::string, std::unique_ptr<Collection>> collections_;
};

}  // namespace xia::storage

#endif  // XIA_STORAGE_DOCUMENT_STORE_H_
