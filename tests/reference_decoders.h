// Reference decoders for the differential check in fuzz_test: the
// hand-written decoders that the field lists in net/wire.cc and
// wal/record.cc replaced, kept verbatim except for
//   - CheckCount() before each allocation sized by a decoded count: a
//     count larger than the bytes left throws OversizedCount instead of
//     allocating (these decoders would otherwise try to allocate it);
//   - the manifest and catalog decoders take the payload inside the file
//     frame and return the entries instead of creating indexes.
// Test-only; the production decoders must agree with these on every
// input except an oversized count, which they reject as malformed.

#ifndef XIA_TESTS_REFERENCE_DECODERS_H_
#define XIA_TESTS_REFERENCE_DECODERS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/status.h"
#include "wal/record.h"
#include "xpath/path.h"

namespace xia::reference {

using namespace ::xia::net;  // NOLINT
using ::xia::wal::CatalogEntry;
using ::xia::wal::Manifest;
using ::xia::wal::RecordType;
using ::xia::wal::RecordTypeName;
using ::xia::wal::WalRecord;

/// Thrown where a reference decoder would allocate for a decoded count
/// that exceeds the bytes left.
struct OversizedCount {};

/// The cursor the reference decoders were written against.
struct RefReader {
  std::string_view data;
  size_t pos = 0;

  bool GetU8(uint8_t* v) {
    if (pos + 1 > data.size()) return false;
    *v = static_cast<uint8_t>(data[pos++]);
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (pos + 4 > data.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(data[pos + i]))
            << (8 * i);
    }
    pos += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos + 8 > data.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
            << (8 * i);
    }
    pos += 8;
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (pos + len > data.size()) return false;
    s->assign(data.data() + pos, len);
    pos += len;
    return true;
  }

  bool AtEnd() const { return pos == data.size(); }

  void CheckCount(uint32_t count) const {
    if (count > data.size() - pos) throw OversizedCount{};
  }
};

inline bool GetF64(RefReader* in, double* v) {
  uint64_t bits = 0;
  if (!in->GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

inline Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed ") + what + " payload");
}

inline Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  QueryRequest req;
  RefReader in{payload};
  uint8_t materialize = 0;
  if (!in.GetString(&req.statement) || !in.GetU8(&materialize) ||
      !in.GetU32(&req.max_rows) || !GetF64(&in, &req.budget_ms) ||
      !in.AtEnd()) {
    return Malformed("query request");
  }
  req.materialize_rows = materialize != 0;
  return req;
}

inline Result<MutationRequest> DecodeMutationRequest(std::string_view payload) {
  MutationRequest req;
  RefReader in{payload};
  if (!in.GetString(&req.statement) || !GetF64(&in, &req.budget_ms)) {
    return Malformed("mutation request");
  }
  // Optional epoch-fence tail (absent from PR-7 clients; 0 = any epoch).
  if (!in.AtEnd()) {
    if (!in.GetU64(&req.expected_epoch) || !in.AtEnd() ||
        req.expected_epoch == 0) {
      return Malformed("mutation request");
    }
  }
  return req;
}

inline Result<AdviseRequest> DecodeAdviseRequest(std::string_view payload) {
  AdviseRequest req;
  RefReader in{payload};
  if (!in.GetString(&req.workload_text) ||
      !GetF64(&in, &req.disk_budget_bytes) ||
      !in.GetString(&req.algorithm) || !GetF64(&in, &req.budget_ms) ||
      !in.GetU32(&req.threads) || !in.AtEnd()) {
    return Malformed("advise request");
  }
  return req;
}

inline Result<ExplainRequest> DecodeExplainRequest(std::string_view payload) {
  ExplainRequest req;
  RefReader in{payload};
  uint8_t analyze = 0;
  if (!in.GetU8(&analyze) || !in.GetString(&req.statement) ||
      !GetF64(&in, &req.budget_ms) || !in.AtEnd()) {
    return Malformed("explain request");
  }
  req.analyze = analyze != 0;
  return req;
}

inline Result<MetricsRequest> DecodeMetricsRequest(std::string_view payload) {
  MetricsRequest req;
  RefReader in{payload};
  uint8_t format = 0;
  if (!in.GetU8(&format) || !in.AtEnd() ||
      format > static_cast<uint8_t>(MetricsFormat::kTable)) {
    return Malformed("metrics request");
  }
  req.format = static_cast<MetricsFormat>(format);
  return req;
}

inline Result<ExecReply> DecodeExecReply(std::string_view payload) {
  ExecReply reply;
  RefReader in{payload};
  uint32_t nrows = 0;
  if (!in.GetU64(&reply.result_count) || !in.GetU64(&reply.docs_examined) ||
      !in.GetU64(&reply.index_entries_scanned) ||
      !GetF64(&in, &reply.wall_seconds) || !in.GetU32(&nrows)) {
    return Malformed("exec reply");
  }
  in.CheckCount(nrows);
  reply.rows.resize(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    if (!in.GetString(&reply.rows[i])) return Malformed("exec reply");
  }
  if (!in.AtEnd()) return Malformed("exec reply");
  return reply;
}

inline Result<AdviseReply> DecodeAdviseReply(std::string_view payload) {
  AdviseReply reply;
  RefReader in{payload};
  uint32_t count = 0;
  if (!in.GetU32(&count)) return Malformed("advise reply");
  in.CheckCount(count);
  reply.indexes.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t general = 0;
    if (!in.GetString(&reply.indexes[i].ddl) ||
        !in.GetU64(&reply.indexes[i].size_bytes) || !in.GetU8(&general)) {
      return Malformed("advise reply");
    }
    reply.indexes[i].is_general = general != 0;
  }
  uint8_t partial = 0;
  if (!GetF64(&in, &reply.total_size_bytes) ||
      !GetF64(&in, &reply.est_speedup) ||
      !in.GetU64(&reply.optimizer_calls) || !in.GetU8(&partial) ||
      !in.AtEnd()) {
    return Malformed("advise reply");
  }
  reply.partial = partial != 0;
  return reply;
}

inline Result<TextReply> DecodeTextReply(std::string_view payload) {
  TextReply reply;
  RefReader in{payload};
  if (!in.GetString(&reply.text) || !in.AtEnd()) {
    return Malformed("text reply");
  }
  return reply;
}

inline Result<ErrorReply> DecodeErrorReply(std::string_view payload) {
  ErrorReply reply;
  RefReader in{payload};
  uint8_t code = 0;
  if (!in.GetU8(&code) || !in.GetString(&reply.message) ||
      code > static_cast<uint8_t>(StatusCode::kFenced)) {
    return Malformed("error reply");
  }
  // Optional leader-endpoint tail (present on kReadOnly/kFenced replies
  // from servers that know where the leader is).
  if (!in.AtEnd()) {
    if (!in.GetString(&reply.leader_endpoint) || !in.AtEnd() ||
        reply.leader_endpoint.empty()) {
      return Malformed("error reply");
    }
  }
  reply.code = static_cast<StatusCode>(code);
  return reply;
}

inline Result<ReplSubscribeRequest> DecodeReplSubscribeRequest(
    std::string_view payload) {
  ReplSubscribeRequest req;
  RefReader in{payload};
  if (!in.GetString(&req.follower_id) || !in.GetU64(&req.start_lsn)) {
    return Malformed("repl subscribe request");
  }
  // Optional witnessed-epoch tail (absent from PR-7 followers = epoch
  // unknown, treated as 0 — never fences).
  if (!in.AtEnd()) {
    if (!in.GetU64(&req.epoch) || !in.AtEnd() || req.epoch == 0) {
      return Malformed("repl subscribe request");
    }
  }
  return req;
}

inline Result<ReplHelloPayload> DecodeReplHelloPayload(
    std::string_view payload) {
  ReplHelloPayload hello;
  RefReader in{payload};
  if (!in.GetU64(&hello.leader_epoch) ||
      !in.GetU64(&hello.epoch_start_lsn) || !in.AtEnd() ||
      hello.leader_epoch == 0) {
    return Malformed("repl hello");
  }
  return hello;
}

inline Result<ReplSnapshotPayload> DecodeReplSnapshotPayload(
    std::string_view payload) {
  ReplSnapshotPayload snap;
  RefReader in{payload};
  uint8_t has_snapshot = 0;
  uint8_t has_catalog = 0;
  if (!in.GetU64(&snap.checkpoint_lsn) || !in.GetU8(&has_snapshot) ||
      !in.GetU8(&has_catalog) || !in.GetString(&snap.snapshot_bytes) ||
      !in.GetString(&snap.catalog_bytes)) {
    return Malformed("repl snapshot");
  }
  // Optional epoch tail (absent from PR-7 leaders = epoch 1).
  if (!in.AtEnd()) {
    if (!in.GetU64(&snap.repl_epoch) || !in.GetU64(&snap.epoch_start_lsn) ||
        !in.AtEnd() || snap.repl_epoch < 2) {
      return Malformed("repl snapshot");
    }
  }
  snap.has_snapshot = has_snapshot != 0;
  snap.has_catalog = has_catalog != 0;
  return snap;
}

inline Result<ReplAckPayload> DecodeReplAckPayload(std::string_view payload) {
  ReplAckPayload ack;
  RefReader in{payload};
  if (!in.GetU64(&ack.acked_lsn) || !in.AtEnd()) {
    return Malformed("repl ack");
  }
  return ack;
}

inline Result<ReplStatusRequest> DecodeReplStatusRequest(
    std::string_view payload) {
  if (!payload.empty()) return Malformed("repl status request");
  return ReplStatusRequest{};
}

inline Result<ReplStatusReply> DecodeReplStatusReply(std::string_view payload) {
  ReplStatusReply reply;
  RefReader in{payload};
  uint32_t nfollowers = 0;
  if (!in.GetString(&reply.role) || !in.GetU64(&reply.repl_epoch) ||
      !in.GetU64(&reply.epoch_start_lsn) || !in.GetU64(&reply.durable_lsn) ||
      !in.GetU64(&reply.checkpoint_lsn) || !in.GetU64(&reply.applied_lsn) ||
      !in.GetString(&reply.leader_endpoint) || !in.GetU32(&nfollowers) ||
      reply.repl_epoch == 0 ||
      (reply.role != "leader" && reply.role != "follower")) {
    return Malformed("repl status reply");
  }
  in.CheckCount(nfollowers);
  reply.followers.resize(nfollowers);
  for (uint32_t i = 0; i < nfollowers; ++i) {
    uint8_t connected = 0;
    if (!in.GetString(&reply.followers[i].follower_id) ||
        !in.GetString(&reply.followers[i].remote) ||
        !in.GetU64(&reply.followers[i].acked_lsn) || !in.GetU8(&connected)) {
      return Malformed("repl status reply");
    }
    reply.followers[i].connected = connected != 0;
  }
  if (!in.AtEnd()) return Malformed("repl status reply");
  return reply;
}

inline Result<PromoteRequest> DecodePromoteRequest(std::string_view payload) {
  if (!payload.empty()) return Malformed("promote request");
  return PromoteRequest{};
}

inline Result<PromoteReply> DecodePromoteReply(std::string_view payload) {
  PromoteReply reply;
  RefReader in{payload};
  if (!in.GetU64(&reply.epoch) || !in.GetU64(&reply.barrier_lsn) ||
      !in.AtEnd() || reply.epoch < 2 || reply.barrier_lsn == 0) {
    return Malformed("promote reply");
  }
  return reply;
}

inline Result<FollowRequest> DecodeFollowRequest(std::string_view payload) {
  FollowRequest req;
  RefReader in{payload};
  uint32_t port = 0;
  if (!in.GetString(&req.host) || !in.GetU32(&port) || !in.AtEnd() ||
      req.host.empty() || port == 0 || port > 0xffff) {
    return Malformed("follow request");
  }
  req.port = static_cast<uint16_t>(port);
  return req;
}

inline Result<CreateIndexRequest> DecodeCreateIndexRequest(
    std::string_view payload) {
  CreateIndexRequest req;
  RefReader in{payload};
  uint8_t structural = 0;
  uint8_t is_virtual = 0;
  uint8_t online = 0;
  if (!in.GetString(&req.name) || !in.GetString(&req.collection) ||
      !in.GetString(&req.pattern) || !in.GetU8(&req.value_type) ||
      !in.GetU8(&structural) || !in.GetU8(&is_virtual) ||
      !in.GetU8(&online) || !in.AtEnd() || req.name.empty() ||
      req.collection.empty() || req.pattern.empty() || req.value_type > 1 ||
      structural > 1 || is_virtual > 1 || online > 1 ||
      (is_virtual && online)) {
    return Malformed("create index request");
  }
  req.structural = structural != 0;
  req.is_virtual = is_virtual != 0;
  req.online = online != 0;
  return req;
}

inline Result<CreateIndexReply> DecodeCreateIndexReply(
    std::string_view payload) {
  CreateIndexReply reply;
  RefReader in{payload};
  uint8_t online = 0;
  if (!in.GetU64(&reply.entry_count) || !in.GetU64(&reply.size_bytes) ||
      !in.GetU8(&online) || !GetF64(&in, &reply.build_seconds) ||
      !GetF64(&in, &reply.stall_seconds) || !in.GetU64(&reply.delta_ops) ||
      !in.AtEnd() || online > 1) {
    return Malformed("create index reply");
  }
  reply.online = online != 0;
  return reply;
}

inline bool GetPath(RefReader* reader, xpath::Path* path) {
  uint32_t count = 0;
  if (!reader->GetU32(&count)) return false;
  std::vector<xpath::Step> steps;
  reader->CheckCount(count);
  steps.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t axis = 0;
    std::string name;
    if (!reader->GetU8(&axis) || !reader->GetString(&name)) return false;
    if (axis > static_cast<uint8_t>(xpath::Axis::kDescendant)) return false;
    if (name.empty()) return false;
    steps.emplace_back(static_cast<xpath::Axis>(axis), std::move(name));
  }
  *path = xpath::Path(std::move(steps));
  return true;
}

inline Result<wal::WalRecord> DecodeRecord(std::string_view payload) {
  RefReader reader{payload};
  WalRecord record;
  uint8_t type = 0;
  if (!reader.GetU64(&record.lsn) || !reader.GetU8(&type)) {
    return Status::ParseError("WAL record payload truncated");
  }
  if (type < static_cast<uint8_t>(RecordType::kCreateCollection) ||
      type > static_cast<uint8_t>(RecordType::kEpochBarrier)) {
    return Status::ParseError("WAL record has unknown type " +
                              std::to_string(type));
  }
  record.type = static_cast<RecordType>(type);
  bool ok = true;
  switch (record.type) {
    case RecordType::kCreateCollection:
    case RecordType::kStatsRefresh:
      ok = reader.GetString(&record.collection);
      break;
    case RecordType::kInsert:
      ok = reader.GetString(&record.collection) &&
           reader.GetString(&record.text);
      break;
    case RecordType::kStatement:
      ok = reader.GetString(&record.text);
      break;
    case RecordType::kCreateIndex: {
      uint8_t value_type = 0;
      uint8_t structural = 0;
      ok = reader.GetString(&record.name) &&
           reader.GetString(&record.collection) &&
           GetPath(&reader, &record.pattern_path) &&
           reader.GetU8(&value_type) && reader.GetU8(&structural) &&
           value_type <= static_cast<uint8_t>(xpath::ValueType::kNumeric) &&
           structural <= 1;
      record.value_type = static_cast<xpath::ValueType>(value_type);
      record.structural = structural != 0;
      break;
    }
    case RecordType::kDropIndex:
      ok = reader.GetString(&record.name);
      break;
    case RecordType::kEpochBarrier:
      ok = reader.GetU64(&record.epoch) && record.epoch > 0;
      break;
  }
  if (!ok || !reader.AtEnd()) {
    return Status::ParseError(std::string("malformed WAL ") +
                              RecordTypeName(record.type) + " record");
  }
  return record;
}

inline Result<Manifest> DecodeManifest(std::string_view payload) {
  RefReader reader{payload};
  Manifest m;
  uint8_t has_snapshot = 0;
  uint8_t has_catalog = 0;
  if (!reader.GetU64(&m.checkpoint_lsn) || !reader.GetU8(&has_snapshot) ||
      !reader.GetU8(&has_catalog)) {
    return Status::DataLoss("bad manifest payload");
  }
  // The epoch tail is optional: manifests written before epoch fencing
  // existed end here and mean "initial epoch". A partial tail is still
  // corruption.
  if (!reader.AtEnd()) {
    if (!reader.GetU64(&m.repl_epoch) || !reader.GetU64(&m.epoch_start_lsn) ||
        !reader.AtEnd() || m.repl_epoch == 0) {
      return Status::DataLoss("bad manifest payload");
    }
  }
  m.has_snapshot = has_snapshot != 0;
  m.has_catalog = has_catalog != 0;
  return m;
}

inline Result<std::vector<CatalogEntry>> DecodeCatalog(
    std::string_view payload) {
  RefReader reader{payload};
  uint32_t count = 0;
  if (!reader.GetU32(&count)) {
    return Status::DataLoss("bad catalog payload");
  }
  std::vector<CatalogEntry> entries;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::string collection;
    xpath::IndexPattern pattern;
    uint8_t type = 0;
    uint8_t structural = 0;
    if (!reader.GetString(&name) || !reader.GetString(&collection) ||
        !GetPath(&reader, &pattern.path) || !reader.GetU8(&type) ||
        !reader.GetU8(&structural) ||
        type > static_cast<uint8_t>(xpath::ValueType::kNumeric)) {
      return Status::DataLoss("bad index entry");
    }
    pattern.type = static_cast<xpath::ValueType>(type);
    pattern.structural = structural != 0;
    entries.push_back(CatalogEntry{name, collection, pattern});
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes");
  }
  return entries;
}

}  // namespace xia::reference

#endif  // XIA_TESTS_REFERENCE_DECODERS_H_
