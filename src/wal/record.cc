#include "wal/record.h"

#include <utility>

#include "wal/wire.h"

namespace xia::wal {

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kCreateCollection:
      return "create_collection";
    case RecordType::kInsert:
      return "insert";
    case RecordType::kStatement:
      return "statement";
    case RecordType::kCreateIndex:
      return "create_index";
    case RecordType::kDropIndex:
      return "drop_index";
    case RecordType::kStatsRefresh:
      return "stats_refresh";
    case RecordType::kEpochBarrier:
      return "epoch_barrier";
  }
  return "unknown";
}

WalRecord WalRecord::CreateCollection(std::string collection) {
  WalRecord r;
  r.type = RecordType::kCreateCollection;
  r.collection = std::move(collection);
  return r;
}

WalRecord WalRecord::Insert(std::string collection, std::string document_text) {
  WalRecord r;
  r.type = RecordType::kInsert;
  r.collection = std::move(collection);
  r.text = std::move(document_text);
  return r;
}

WalRecord WalRecord::Statement(std::string statement_text) {
  WalRecord r;
  r.type = RecordType::kStatement;
  r.text = std::move(statement_text);
  return r;
}

WalRecord WalRecord::CreateIndex(std::string name, std::string collection,
                                 const xpath::IndexPattern& pattern) {
  WalRecord r;
  r.type = RecordType::kCreateIndex;
  r.name = std::move(name);
  r.collection = std::move(collection);
  r.pattern_path = pattern.path;
  r.value_type = pattern.type;
  r.structural = pattern.structural;
  return r;
}

WalRecord WalRecord::DropIndex(std::string name) {
  WalRecord r;
  r.type = RecordType::kDropIndex;
  r.name = std::move(name);
  return r;
}

WalRecord WalRecord::StatsRefresh(std::string collection) {
  WalRecord r;
  r.type = RecordType::kStatsRefresh;
  r.collection = std::move(collection);
  return r;
}

WalRecord WalRecord::EpochBarrier(uint64_t epoch) {
  WalRecord r;
  r.type = RecordType::kEpochBarrier;
  r.epoch = epoch;
  return r;
}

/// The index definition shared by the kCreateIndex record and a catalog
/// entry. `structural` is a bool (any nonzero byte is true) in the
/// catalog and a StrictBool in the record.
template <class IO, class Structural>
bool IndexDefFields(IO& io, std::string& name, std::string& collection,
                    xpath::Path& path, xpath::ValueType& type,
                    Structural&& structural) {
  return io(name) && io(collection) && io(path) &&
         io(type, xpath::ValueType::kNumeric) && io(structural);
}

/// The fields after the lsn + type prefix, by type.
template <class IO>
bool Fields(IO& io, WalRecord& r) {
  switch (r.type) {
    case RecordType::kCreateCollection:
    case RecordType::kStatsRefresh:
      return io(r.collection);
    case RecordType::kInsert:
      return io(r.collection) && io(r.text);
    case RecordType::kStatement:
      return io(r.text);
    case RecordType::kCreateIndex:
      return IndexDefFields(io, r.name, r.collection, r.pattern_path,
                            r.value_type, StrictBool{r.structural});
    case RecordType::kDropIndex:
      return io(r.name);
    case RecordType::kEpochBarrier:
      return io(r.epoch) && io.Check([&] { return r.epoch > 0; });
  }
  return false;
}

/// The epoch tail is always written; only manifests from before epoch
/// fencing end without it.
template <class IO>
bool Fields(IO& io, Manifest& m) {
  return io(m.checkpoint_lsn) && io(m.has_snapshot) && io(m.has_catalog) &&
         io.Tail([] { return true; }, m.repl_epoch, m.epoch_start_lsn) &&
         io.Check([&] { return m.repl_epoch != 0; });
}

template <class IO>
bool Fields(IO& io, CatalogEntry& e) {
  return IndexDefFields(io, e.name, e.collection, e.pattern.path,
                        e.pattern.type, e.pattern.structural);
}

void EncodeRecordTo(const WalRecord& record, std::string* out) {
  PutU64(out, record.lsn);
  PutU8(out, static_cast<uint8_t>(record.type));
  EncodeTo(record, out);
}

std::string EncodeRecord(const WalRecord& record) {
  std::string out;
  EncodeRecordTo(record, &out);
  return out;
}

Result<WalRecord> DecodeRecord(std::string_view payload) {
  Reader in(payload);
  WalRecord record;
  uint8_t type = 0;
  if (!in(record.lsn) || !in(type)) {
    return Status::ParseError("WAL record payload truncated");
  }
  if (type < static_cast<uint8_t>(RecordType::kCreateCollection) ||
      type > static_cast<uint8_t>(RecordType::kEpochBarrier)) {
    return Status::ParseError("WAL record has unknown type " +
                              std::to_string(type));
  }
  record.type = static_cast<RecordType>(type);
  if (!in(record) || !in.AtEnd()) {
    return Status::ParseError(std::string("malformed WAL ") +
                              RecordTypeName(record.type) + " record");
  }
  return record;
}

std::string EncodeManifest(const Manifest& manifest) {
  return Encode(manifest);
}

Result<Manifest> DecodeManifest(std::string_view payload) {
  Manifest m;
  if (!DecodeAll(payload, &m)) {
    return Status::DataLoss("bad manifest payload");
  }
  return m;
}

std::string EncodeCatalog(const std::vector<CatalogEntry>& entries) {
  return Encode(entries);
}

Result<std::vector<CatalogEntry>> DecodeCatalog(std::string_view payload) {
  std::vector<CatalogEntry> entries;
  if (!DecodeAll(payload, &entries)) {
    return Status::DataLoss("bad catalog payload");
  }
  return entries;
}

}  // namespace xia::wal
