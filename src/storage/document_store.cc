#include "storage/document_store.h"

#include <cassert>

#include "obs/metrics.h"
#include "util/heap.h"

namespace xia::storage {

xml::DocId Collection::Add(xml::Document doc) {
  XIA_OBS_COUNT("xia.storage.store.doc_inserts", 1);
  total_bytes_ += doc.ApproximateByteSize();
  total_nodes_ += doc.size();
  ++live_count_;
  // A resident document keeps only what it holds: builders reserve
  // generously for the duration of a build.
  doc.ShrinkToFit();
  docs_.push_back(std::make_unique<xml::Document>(std::move(doc)));
  return static_cast<xml::DocId>(docs_.size() - 1);
}

Status Collection::Remove(xml::DocId id) {
  if (!IsLive(id)) {
    return Status::NotFound("no live document with id " +
                            std::to_string(id));
  }
  auto& slot = docs_[static_cast<size_t>(id)];
  total_bytes_ -= slot->ApproximateByteSize();
  total_nodes_ -= slot->size();
  --live_count_;
  slot.reset();
  XIA_OBS_COUNT("xia.storage.store.doc_removes", 1);
  return Status::OK();
}

bool Collection::IsLive(xml::DocId id) const {
  return id >= 0 && static_cast<size_t>(id) < docs_.size() &&
         docs_[static_cast<size_t>(id)] != nullptr;
}

const xml::Document& Collection::Get(xml::DocId id) const {
  assert(IsLive(id));
  XIA_OBS_COUNT("xia.storage.store.doc_fetches", 1);
  return *docs_[static_cast<size_t>(id)];
}

DocumentStore::~DocumentStore() {
  collections_.clear();
  ReleaseFreeHeapPages();
}

Result<Collection*> DocumentStore::CreateCollection(const std::string& name) {
  auto [it, inserted] =
      collections_.emplace(name, std::make_unique<Collection>(name));
  if (!inserted) {
    return Status::AlreadyExists("collection " + name + " exists");
  }
  return it->second.get();
}

Result<Collection*> DocumentStore::GetCollection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection " + name + " not found");
  }
  return it->second.get();
}

Result<const Collection*> DocumentStore::GetCollection(
    const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection " + name + " not found");
  }
  return static_cast<const Collection*>(it->second.get());
}

std::vector<std::string> DocumentStore::CollectionNames() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

}  // namespace xia::storage
