// WAL record model: one logical redo record per committed mutation.
//
// XIA logs *logically* (statement-level redo), not physically: the store
// is an in-memory structure whose only on-disk form is the checkpoint
// snapshot, so there are no pages to undo and replaying whole statements
// in LSN order from the checkpoint state reproduces the exact store
// (statement execution is deterministic). Record kinds:
//
//   kCreateCollection  collection name
//   kInsert            collection + verbatim document text (ToText is
//                      lossy for inserts, so inserts get a dedicated
//                      record instead of statement text)
//   kStatement         delete/update in query-language text, re-parsed by
//                      engine::ParseStatement at replay (validated to
//                      round-trip at log time, so replay cannot hit a
//                      parse error on a frame that passed its CRC)
//   kCreateIndex       name + collection + pattern path/type/structural
//   kDropIndex         name
//   kStatsRefresh      collection name (RunStats)
//   kEpochBarrier      replication epoch (u64). Written by promotion:
//                      marks the first LSN owned by the new epoch's
//                      leader. Replaying it is a store no-op, but
//                      recovery and followers adopt the epoch, and a
//                      deposed leader truncates everything at or past
//                      the barrier LSN before rejoining (DESIGN §15).
//
// Payload layout: u64 lsn, u8 type, then the type's fields (one field
// list in record.cc, wire.h conventions). Framing (length + CRC) is the
// log file's job.

#ifndef XIA_WAL_RECORD_H_
#define XIA_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xpath/path.h"

namespace xia::wal {

enum class RecordType : uint8_t {
  kCreateCollection = 1,
  kInsert = 2,
  kStatement = 3,
  kCreateIndex = 4,
  kDropIndex = 5,
  kStatsRefresh = 6,
  kEpochBarrier = 7,
};

/// Returns the lower-case name of a record type ("insert", ...).
const char* RecordTypeName(RecordType type);

/// One decoded WAL record. Which fields are meaningful depends on `type`;
/// unused fields stay empty.
struct WalRecord {
  uint64_t lsn = 0;
  RecordType type = RecordType::kStatement;
  /// kCreateCollection / kInsert / kStatsRefresh / kCreateIndex.
  std::string collection;
  /// kInsert: document text. kStatement: statement text.
  std::string text;
  /// kCreateIndex / kDropIndex: index name.
  std::string name;
  /// kCreateIndex: the indexed pattern.
  xpath::Path pattern_path;
  xpath::ValueType value_type = xpath::ValueType::kString;
  bool structural = false;
  /// kEpochBarrier: the replication epoch that starts at this LSN.
  uint64_t epoch = 0;

  static WalRecord CreateCollection(std::string collection);
  static WalRecord Insert(std::string collection, std::string document_text);
  static WalRecord Statement(std::string statement_text);
  static WalRecord CreateIndex(std::string name, std::string collection,
                               const xpath::IndexPattern& pattern);
  static WalRecord DropIndex(std::string name);
  static WalRecord StatsRefresh(std::string collection);
  static WalRecord EpochBarrier(uint64_t epoch);
};

/// Renders the record payload (lsn + type + fields).
std::string EncodeRecord(const WalRecord& record);

/// Appends the payload to `out` without clearing it — lets the writer
/// reuse one scratch buffer across appends instead of allocating per
/// record.
void EncodeRecordTo(const WalRecord& record, std::string* out);

/// Parses a record payload. kParseError on malformed input (a payload
/// that passed its frame CRC but does not decode is corruption beyond
/// what framing can explain, not a torn tail).
Result<WalRecord> DecodeRecord(std::string_view payload);

// ---- checkpoint files (the payloads inside their magic + CRC frame) ----

/// The MANIFEST: the commit point naming the current checkpoint. The
/// epoch pair is an optional tail; manifests written before epoch
/// fencing end before it and mean the initial epoch.
struct Manifest {
  uint64_t checkpoint_lsn = 0;
  bool has_snapshot = false;
  bool has_catalog = false;
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;
};

std::string EncodeManifest(const Manifest& manifest);
/// kDataLoss on malformed input.
Result<Manifest> DecodeManifest(std::string_view payload);

/// One real index in the checkpoint catalog file; its fields are those of
/// a kCreateIndex record.
struct CatalogEntry {
  std::string name;
  std::string collection;
  xpath::IndexPattern pattern;
};

std::string EncodeCatalog(const std::vector<CatalogEntry>& entries);
/// kDataLoss on malformed input.
Result<std::vector<CatalogEntry>> DecodeCatalog(std::string_view payload);

}  // namespace xia::wal

#endif  // XIA_WAL_RECORD_H_
