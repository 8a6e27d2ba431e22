#include "storage/catalog.h"

#include "fault/fault.h"
#include "obs/metrics.h"
#include "storage/online_build.h"
#include "util/stopwatch.h"

namespace xia::storage {

Result<const IndexDef*> Catalog::CreateIndex(
    const std::string& name, const std::string& collection,
    const xpath::IndexPattern& pattern, util::ThreadPool* pool) {
  XIA_FAULT_INJECT(fault::points::kIndexBuild);
  if (indexes_.count(name) != 0) {
    return Status::AlreadyExists("index " + name + " exists");
  }
  auto coll = store_->GetCollection(collection);
  if (!coll.ok()) return coll.status();

  // Physical index construction allocates B-tree nodes; the alloc fault
  // point models that allocation failing before any pages are built.
  XIA_FAULT_INJECT(fault::points::kBtreeAlloc);

  Stopwatch sw;
  IndexDef def;
  def.name = name;
  def.collection = collection;
  def.pattern = pattern;
  def.is_virtual = false;
  def.physical = std::make_unique<PathValueIndex>(name, collection, pattern);
  XIA_RETURN_IF_ERROR(def.physical->BuildBulk(**coll, pool));
  def.stats = def.physical->ActualStats(cc_);
  XIA_OBS_COUNT("xia.storage.catalog.indexes_created", 1);
  XIA_OBS_COUNT("xia.storage.index.builds_offline", 1);
  XIA_OBS_OBSERVE_LATENCY("xia.storage.index.build_seconds",
                          sw.ElapsedSeconds());
  auto [it, _] = indexes_.emplace(name, std::move(def));
  return &it->second;
}

Result<const IndexDef*> Catalog::InstallIndex(
    std::unique_ptr<PathValueIndex> built) {
  const std::string name = built->name();
  const std::string collection = built->collection();
  if (indexes_.count(name) != 0) {
    return Status::AlreadyExists("index " + name + " exists");
  }
  auto coll = store_->GetCollection(collection);
  if (!coll.ok()) return coll.status();

  IndexDef def;
  def.name = name;
  def.collection = collection;
  def.pattern = built->pattern();
  def.is_virtual = false;
  def.physical = std::move(built);
  def.stats = def.physical->ActualStats(cc_);
  XIA_OBS_COUNT("xia.storage.catalog.indexes_created", 1);
  auto [it, _] = indexes_.emplace(name, std::move(def));
  return &it->second;
}

void Catalog::AttachSideLog(const std::string& collection, IndexSideLog* log) {
  side_logs_.emplace_back(collection, log);
}

void Catalog::DetachSideLog(const IndexSideLog* log) {
  for (auto it = side_logs_.begin(); it != side_logs_.end(); ++it) {
    if (it->second == log) {
      side_logs_.erase(it);
      return;
    }
  }
}

Result<const IndexDef*> Catalog::CreateVirtualIndex(
    const std::string& name, const std::string& collection,
    const xpath::IndexPattern& pattern, const IndexStats* stats) {
  if (indexes_.count(name) != 0) {
    return Status::AlreadyExists("index " + name + " exists");
  }
  IndexDef def;
  if (stats != nullptr) {
    def.stats = *stats;
  } else {
    auto data = statistics_->Get(collection);
    if (!data.ok()) return data.status();
    def.stats = (*data)->DeriveIndexStats(pattern, cc_);
  }
  def.name = name;
  def.collection = collection;
  def.pattern = pattern;
  def.is_virtual = true;
  XIA_OBS_COUNT("xia.storage.catalog.virtual_indexes_created", 1);
  auto [it, _] = indexes_.emplace(name, std::move(def));
  return &it->second;
}

Status Catalog::DropIndex(const std::string& name) {
  if (indexes_.erase(name) == 0) {
    return Status::NotFound("index " + name + " not found");
  }
  return Status::OK();
}

void Catalog::DropAllVirtualIndexes() {
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    if (it->second.is_virtual) {
      it = indexes_.erase(it);
    } else {
      ++it;
    }
  }
}

void Catalog::AdoptIndexesFrom(Catalog* other) {
  indexes_ = std::move(other->indexes_);
  other->indexes_.clear();
}

std::vector<const IndexDef*> Catalog::IndexesFor(
    const std::string& collection) const {
  std::vector<const IndexDef*> out;
  for (const auto& [_, def] : indexes_) {
    if (def.collection == collection) out.push_back(&def);
  }
  return out;
}

Result<const IndexDef*> Catalog::Get(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + name + " not found");
  }
  return &it->second;
}

Result<PathValueIndex*> Catalog::GetPhysical(const std::string& name) {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + name + " not found");
  }
  if (it->second.is_virtual || it->second.physical == nullptr) {
    return Status::FailedPrecondition("index " + name + " is virtual");
  }
  return it->second.physical.get();
}

void Catalog::NotifyInsert(const std::string& collection, xml::DocId id,
                           const xml::Document& doc) {
  for (auto& [_, def] : indexes_) {
    if (!def.is_virtual && def.collection == collection) {
      def.physical->OnInsert(id, doc);
      def.stats = def.physical->ActualStats(cc_);
    }
  }
  for (auto& [coll, log] : side_logs_) {
    if (coll == collection) log->RecordInsert(id, doc);
  }
}

void Catalog::NotifyRemove(const std::string& collection, xml::DocId id,
                           const xml::Document& doc) {
  for (auto& [_, def] : indexes_) {
    if (!def.is_virtual && def.collection == collection) {
      def.physical->OnRemove(id, doc);
      def.stats = def.physical->ActualStats(cc_);
    }
  }
  for (auto& [coll, log] : side_logs_) {
    if (coll == collection) log->RecordRemove(id, doc);
  }
}

}  // namespace xia::storage
