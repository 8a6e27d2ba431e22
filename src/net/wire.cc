#include "net/wire.h"

#include <cassert>

#include "util/crc32.h"
#include "wal/wire.h"

namespace xia::net {

using wal::PutU32;
using wal::PutU64;
using wal::PutU8;

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kQuery:
      return "query";
    case MsgType::kMutation:
      return "mutation";
    case MsgType::kAdvise:
      return "advise";
    case MsgType::kExplain:
      return "explain";
    case MsgType::kMetrics:
      return "metrics";
    case MsgType::kReplSubscribe:
      return "repl_subscribe";
    case MsgType::kReplStatus:
      return "repl_status";
    case MsgType::kPromote:
      return "promote";
    case MsgType::kFollow:
      return "follow";
    case MsgType::kCreateIndex:
      return "create_index";
    case MsgType::kReply:
      return "reply";
    case MsgType::kError:
      return "error";
    case MsgType::kReplFrame:
      return "repl_frame";
    case MsgType::kReplSnapshot:
      return "repl_snapshot";
    case MsgType::kReplAck:
      return "repl_ack";
    case MsgType::kReplHello:
      return "repl_hello";
  }
  return "unknown";
}

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kPing) &&
         type <= static_cast<uint8_t>(MsgType::kCreateIndex);
}

namespace {

bool IsKnownType(uint8_t type) {
  return IsRequestType(type) ||
         type == static_cast<uint8_t>(MsgType::kReply) ||
         type == static_cast<uint8_t>(MsgType::kError) ||
         type == static_cast<uint8_t>(MsgType::kReplFrame) ||
         type == static_cast<uint8_t>(MsgType::kReplSnapshot) ||
         type == static_cast<uint8_t>(MsgType::kReplAck) ||
         type == static_cast<uint8_t>(MsgType::kReplHello);
}

/// CRC over a frame with its crc field (bytes 20..23) treated as zero:
/// the first 20 header bytes of `head`, four zero bytes, the payload.
uint32_t FrameCrc(std::string_view head, std::string_view payload) {
  static constexpr char kZero[4] = {0, 0, 0, 0};
  uint32_t crc = Crc32Update(0, head.data(), 20);
  crc = Crc32Update(crc, kZero, 4);
  return Crc32Update(crc, payload.data(), payload.size());
}

}  // namespace

std::string EncodeFrame(MsgType type, uint64_t request_id,
                        std::string_view payload) {
  assert(payload.size() <= kMaxPayloadBytes);
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  PutU32(&out, kNetMagic);
  PutU8(&out, kNetVersion);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU8(&out, 0);  // flags lo
  PutU8(&out, 0);  // flags hi
  PutU64(&out, request_id);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, FrameCrc(out, payload));
  out.append(payload.data(), payload.size());
  return out;
}

void FrameReader::Feed(std::string_view bytes) {
  // Compact once the consumed prefix dominates, so a long-lived session
  // does not grow its buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

FrameReader::Next FrameReader::Poll(Frame* out, std::string* error) {
  if (bad_) {
    if (error != nullptr) *error = bad_reason_;
    return Next::kBad;
  }
  const std::string_view view = std::string_view(buf_).substr(pos_);
  if (view.size() < kHeaderBytes) return Next::kNeedMore;

  const auto bad = [&](std::string reason) {
    bad_ = true;
    bad_reason_ = std::move(reason);
    if (error != nullptr) *error = bad_reason_;
    return Next::kBad;
  };

  if (wal::LoadLE<uint32_t>(view.data()) != kNetMagic) {
    return bad("bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(view[4]);
  if (version != kNetVersion) {
    return bad("unsupported protocol version " + std::to_string(version));
  }
  const uint8_t type = static_cast<uint8_t>(view[5]);
  if (!IsKnownType(type)) {
    return bad("unknown message type " + std::to_string(type));
  }
  if (view[6] != 0 || view[7] != 0) return bad("nonzero reserved flags");
  const uint32_t payload_len = wal::LoadLE<uint32_t>(view.data() + 16);
  if (payload_len > kMaxPayloadBytes) {
    return bad("frame payload length " + std::to_string(payload_len) +
               " exceeds limit");
  }
  if (view.size() < kHeaderBytes + payload_len) return Next::kNeedMore;

  const std::string_view frame = view.substr(0, kHeaderBytes + payload_len);
  const uint32_t want_crc = wal::LoadLE<uint32_t>(frame.data() + 20);
  if (FrameCrc(frame, frame.substr(kHeaderBytes)) != want_crc) {
    return bad("frame crc mismatch");
  }

  out->type = static_cast<MsgType>(type);
  out->request_id = wal::LoadLE<uint64_t>(frame.data() + 8);
  out->payload.assign(frame.data() + kHeaderBytes, payload_len);
  pos_ += frame.size();
  return Next::kFrame;
}

// ---------------------------------------------------------------------------
// Payload field lists (wal/wire.h).

template <class IO>
bool Fields(IO& io, QueryRequest& m) {
  return io(m.statement) && io(m.materialize_rows) && io(m.max_rows) &&
         io(m.budget_ms);
}

template <class IO>
bool Fields(IO& io, MutationRequest& m) {
  return io(m.statement) && io(m.budget_ms) &&
         io.Tail([&] { return m.expected_epoch != 0; }, m.expected_epoch);
}

template <class IO>
bool Fields(IO& io, AdviseRequest& m) {
  return io(m.workload_text) && io(m.disk_budget_bytes) && io(m.algorithm) &&
         io(m.budget_ms) && io(m.threads);
}

template <class IO>
bool Fields(IO& io, ExplainRequest& m) {
  return io(m.analyze) && io(m.statement) && io(m.budget_ms);
}

template <class IO>
bool Fields(IO& io, MetricsRequest& m) {
  return io(m.format, MetricsFormat::kTable);
}

template <class IO>
bool Fields(IO& io, ExecReply& m) {
  return io(m.result_count) && io(m.docs_examined) &&
         io(m.index_entries_scanned) && io(m.wall_seconds) && io(m.rows);
}

template <class IO>
bool Fields(IO& io, AdviseReplyIndex& m) {
  return io(m.ddl) && io(m.size_bytes) && io(m.is_general);
}

template <class IO>
bool Fields(IO& io, AdviseReply& m) {
  return io(m.indexes) && io(m.total_size_bytes) && io(m.est_speedup) &&
         io(m.optimizer_calls) && io(m.partial);
}

template <class IO>
bool Fields(IO& io, TextReply& m) {
  return io(m.text);
}

template <class IO>
bool Fields(IO& io, ErrorReply& m) {
  return io(m.code, StatusCode::kFenced) && io(m.message) &&
         io.Tail([&] { return !m.leader_endpoint.empty(); },
                 m.leader_endpoint);
}

template <class IO>
bool Fields(IO& io, ReplSubscribeRequest& m) {
  return io(m.follower_id) && io(m.start_lsn) &&
         io.Tail([&] { return m.epoch != 0; }, m.epoch);
}

template <class IO>
bool Fields(IO& io, ReplHelloPayload& m) {
  return io(m.leader_epoch) && io(m.epoch_start_lsn) &&
         io.Check([&] { return m.leader_epoch != 0; });
}

template <class IO>
bool Fields(IO& io, ReplSnapshotPayload& m) {
  return io(m.checkpoint_lsn) && io(m.has_snapshot) && io(m.has_catalog) &&
         io(m.snapshot_bytes) && io(m.catalog_bytes) &&
         io.Tail([&] { return m.repl_epoch > 1; }, m.repl_epoch,
                 m.epoch_start_lsn);
}

template <class IO>
bool Fields(IO& io, ReplAckPayload& m) {
  return io(m.acked_lsn);
}

template <class IO>
bool Fields(IO&, ReplStatusRequest&) {
  return true;
}

template <class IO>
bool Fields(IO& io, ReplStatusFollower& m) {
  return io(m.follower_id) && io(m.remote) && io(m.acked_lsn) &&
         io(m.connected);
}

template <class IO>
bool Fields(IO& io, ReplStatusReply& m) {
  return io(m.role) && io(m.repl_epoch) && io(m.epoch_start_lsn) &&
         io(m.durable_lsn) && io(m.checkpoint_lsn) && io(m.applied_lsn) &&
         io(m.leader_endpoint) && io(m.followers) && io.Check([&] {
           return m.repl_epoch != 0 &&
                  (m.role == "leader" || m.role == "follower");
         });
}

template <class IO>
bool Fields(IO&, PromoteRequest&) {
  return true;
}

template <class IO>
bool Fields(IO& io, PromoteReply& m) {
  return io(m.epoch) && io(m.barrier_lsn) &&
         io.Check([&] { return m.epoch >= 2 && m.barrier_lsn != 0; });
}

template <class IO>
bool Fields(IO& io, FollowRequest& m) {
  return io(m.host) && io(m.port) &&
         io.Check([&] { return !m.host.empty() && m.port != 0; });
}

template <class IO>
bool Fields(IO& io, CreateIndexRequest& m) {
  return io(m.name) && io(m.collection) && io(m.pattern) &&
         io(m.value_type) && io(wal::StrictBool{m.structural}) &&
         io(wal::StrictBool{m.is_virtual}) && io(wal::StrictBool{m.online}) &&
         io.Check([&] {
           // A virtual index builds nothing, so it cannot be built online.
           return !m.name.empty() && !m.collection.empty() &&
                  !m.pattern.empty() && m.value_type <= 1 &&
                  !(m.is_virtual && m.online);
         });
}

template <class IO>
bool Fields(IO& io, CreateIndexReply& m) {
  return io(m.entry_count) && io(m.size_bytes) &&
         io(wal::StrictBool{m.online}) && io(m.build_seconds) &&
         io(m.stall_seconds) && io(m.delta_ops);
}

namespace {

template <class T>
Result<T> Decode(std::string_view payload, const char* what) {
  T m;
  if (!wal::DecodeAll(payload, &m)) {
    return Status::ParseError(std::string("malformed ") + what + " payload");
  }
  return m;
}

}  // namespace

// The public Encode*/Decode* pair of each payload (declared in wire.h).
#define XIA_PAYLOAD_CODEC(T, what)                             \
  std::string Encode##T(const T& m) { return wal::Encode(m); } \
  Result<T> Decode##T(std::string_view payload) {              \
    return Decode<T>(payload, what);                           \
  }

XIA_PAYLOAD_CODEC(QueryRequest, "query request")
XIA_PAYLOAD_CODEC(MutationRequest, "mutation request")
XIA_PAYLOAD_CODEC(AdviseRequest, "advise request")
XIA_PAYLOAD_CODEC(ExplainRequest, "explain request")
XIA_PAYLOAD_CODEC(MetricsRequest, "metrics request")
XIA_PAYLOAD_CODEC(ExecReply, "exec reply")
XIA_PAYLOAD_CODEC(AdviseReply, "advise reply")
XIA_PAYLOAD_CODEC(TextReply, "text reply")
XIA_PAYLOAD_CODEC(ErrorReply, "error reply")
XIA_PAYLOAD_CODEC(ReplSubscribeRequest, "repl subscribe request")
XIA_PAYLOAD_CODEC(ReplHelloPayload, "repl hello")
XIA_PAYLOAD_CODEC(ReplSnapshotPayload, "repl snapshot")
XIA_PAYLOAD_CODEC(ReplAckPayload, "repl ack")
XIA_PAYLOAD_CODEC(ReplStatusRequest, "repl status request")
XIA_PAYLOAD_CODEC(ReplStatusReply, "repl status reply")
XIA_PAYLOAD_CODEC(PromoteRequest, "promote request")
XIA_PAYLOAD_CODEC(PromoteReply, "promote reply")
XIA_PAYLOAD_CODEC(FollowRequest, "follow request")
XIA_PAYLOAD_CODEC(CreateIndexRequest, "create index request")
XIA_PAYLOAD_CODEC(CreateIndexReply, "create index reply")

#undef XIA_PAYLOAD_CODEC

Status ErrorReplyToStatus(const ErrorReply& reply) {
  if (reply.code == StatusCode::kOk) {
    // An error frame must not claim success; treat as a server bug.
    return Status::Internal("error frame with ok code: " + reply.message);
  }
  return Status(reply.code, reply.message);
}

}  // namespace xia::net
