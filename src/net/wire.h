// xia::net — the framed binary wire protocol between xia_server and its
// clients (DESIGN §13).
//
// Every message travels as one frame, mirroring the WAL's framing
// discipline (magic + length + CRC32, little-endian integers, u32-length-
// prefixed strings — the wal/wire.h helpers are reused directly so the
// byte conventions stay identical across the persistence and network
// formats):
//
//   off  size  field
//   0    4     magic       0x3154454e ("NET1" when read as LE bytes)
//   4    1     version     kNetVersion (1)
//   5    1     type        MsgType
//   6    2     flags       reserved, must be 0
//   8    8     request_id  client-assigned; echoed verbatim in responses
//   16   4     payload_len <= kMaxPayloadBytes
//   20   4     crc32       over the whole frame (header with this field
//                          zeroed, then the payload) — a single flipped
//                          bit anywhere in a frame is detected
//   24   ...   payload     type-specific encoding (below)
//
// Requests carry one of the six request types (ping / query / mutation /
// advise / explain / metrics); the server answers every request with
// exactly one kReply (success, payload depends on the request type) or
// kError (u8 StatusCode + message) frame carrying the same request_id.
// A frame that fails its magic/version/length checks or its CRC is a
// protocol error: the stream cannot be resynchronized, so the server
// sends a best-effort kError frame with request_id 0 and drops the
// session. Truncated frames are simply incomplete — the reader waits for
// more bytes, and a connection that closes mid-frame is dropped without
// ever dispatching the partial request (this is what makes "no partial
// mutation under corruption" structural: a mutation is parsed and
// executed only after its frame passed the CRC whole).

#ifndef XIA_NET_WIRE_H_
#define XIA_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xia::net {

inline constexpr uint32_t kNetMagic = 0x3154454e;  // "NET1"
inline constexpr uint8_t kNetVersion = 1;
/// Fixed frame header size in bytes.
inline constexpr size_t kHeaderBytes = 24;
/// Upper bound on a frame payload; a length above this is a protocol
/// error, never an allocation request (same stance as the WAL).
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// Message types. Requests are < kReply; response types live at 0x40+
/// and replication stream types at 0x50+ so IsRequestType stays a
/// comparison.
///
/// kReplSubscribe is the only request that does NOT follow the
/// one-request/one-reply shape: it flips the session into a one-way
/// stream of kReplHello / kReplSnapshot / kReplFrame frames from leader
/// to follower, with kReplAck frames flowing back. Stream frames carry
/// the sender's replication epoch in the request_id field (the stream is
/// positional, ordered by LSN, never correlated by id — the field would
/// otherwise always be 0, so reusing it stamps every frame with its
/// epoch at zero format cost; DESIGN §15).
enum class MsgType : uint8_t {
  kPing = 1,
  kQuery = 2,
  kMutation = 3,
  kAdvise = 4,
  kExplain = 5,
  kMetrics = 6,
  kReplSubscribe = 7,
  kReplStatus = 8,
  kPromote = 9,
  kFollow = 10,
  kCreateIndex = 11,
  kReply = 0x40,
  kError = 0x41,
  kReplFrame = 0x50,
  kReplSnapshot = 0x51,
  kReplAck = 0x52,
  kReplHello = 0x53,
};

const char* MsgTypeName(MsgType type);
bool IsRequestType(uint8_t type);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

/// Encodes a complete frame (header + CRC + payload). `payload` must be
/// within kMaxPayloadBytes (checked by the callers' encoders; asserted
/// here in debug builds).
std::string EncodeFrame(MsgType type, uint64_t request_id,
                        std::string_view payload);

/// Incremental frame decoder over a TCP byte stream. Feed() appends
/// received bytes; Poll() yields complete frames in order. A protocol
/// violation (bad magic/version/flags, oversized length, CRC mismatch)
/// is sticky: the stream cannot be trusted past it.
class FrameReader {
 public:
  enum class Next {
    kFrame,     ///< *out holds the next complete, CRC-verified frame
    kNeedMore,  ///< no complete frame buffered; feed more bytes
    kBad,       ///< protocol violation; *error says why. Sticky.
  };

  void Feed(std::string_view bytes);
  Next Poll(Frame* out, std::string* error);

  /// Bytes buffered but not yet consumed by Poll.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool bad_ = false;
  std::string bad_reason_;
};

// ---------------------------------------------------------------------------
// Payloads. Each struct's fields travel in declaration order, encoded by
// one field list in wire.cc under the wal/wire.h conventions (DESIGN
// §13); the optional fields documented below form a trailing tail.

/// kQuery — a read-only statement.
struct QueryRequest {
  std::string statement;
  bool materialize_rows = false;
  uint32_t max_rows = 10;
  /// Per-request wall-clock budget in ms; 0 = the server's default.
  double budget_ms = 0;
};

/// kMutation — an insert/delete/update statement. `expected_epoch` lets
/// a client fence its write to a specific replication epoch: 0 accepts
/// whatever epoch the server is in, any other value makes the server
/// reject with kFenced unless the epochs match exactly (so a client that
/// learned the leader before a promotion cannot slip a write into the
/// wrong epoch through a still-open connection).
struct MutationRequest {
  std::string statement;
  double budget_ms = 0;
  uint64_t expected_epoch = 0;
};

/// kAdvise — what-if index advising over a workload carried in the
/// request (ParseWorkloadText format). An empty workload_text asks the
/// server to advise over its captured (templatized) workload instead.
struct AdviseRequest {
  std::string workload_text;
  double disk_budget_bytes = 10.0 * 1024 * 1024;
  /// "", "greedy", "heuristics", "topdown-lite", "topdown-full", "dp".
  std::string algorithm;
  double budget_ms = 0;
  /// Worker threads for the advise run; 0 = the server's default.
  uint32_t threads = 0;
};

/// kExplain — plan (or EXPLAIN ANALYZE) one statement.
struct ExplainRequest {
  bool analyze = false;
  std::string statement;
  double budget_ms = 0;
};

/// kMetrics — the process-wide metrics snapshot, rendered server-side.
enum class MetricsFormat : uint8_t { kJson = 0, kPrometheus = 1, kTable = 2 };
struct MetricsRequest {
  MetricsFormat format = MetricsFormat::kJson;
};

/// kReply payload for kQuery / kMutation.
struct ExecReply {
  uint64_t result_count = 0;
  uint64_t docs_examined = 0;
  uint64_t index_entries_scanned = 0;
  double wall_seconds = 0;
  std::vector<std::string> rows;
};

/// kReply payload for kAdvise.
struct AdviseReplyIndex {
  std::string ddl;
  uint64_t size_bytes = 0;
  bool is_general = false;
};
struct AdviseReply {
  std::vector<AdviseReplyIndex> indexes;
  double total_size_bytes = 0;
  double est_speedup = 1.0;
  uint64_t optimizer_calls = 0;
  bool partial = false;
};

/// kReply payload for kPing (echo), kExplain and kMetrics (rendered
/// text).
struct TextReply {
  std::string text;
};

/// kError payload: the failing StatusCode plus its message. For
/// kReadOnly / kFenced rejections the server also carries the leader
/// endpoint it believes is current ("host:port", empty when unknown) so
/// clients can redirect instead of guessing. The field is encoded only
/// when non-empty — old decoders never see it, and the decoder accepts
/// both forms.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  std::string leader_endpoint;
};

// ---- replication (xia::repl, DESIGN §14) ----

/// kReplSubscribe — a follower asks the leader to stream committed WAL
/// records starting at `start_lsn`. When the leader's log no longer
/// reaches back that far it answers with a kReplSnapshot first. `epoch`
/// is the highest replication epoch the follower has witnessed: a leader
/// whose own epoch is lower rejects the subscribe with kFenced (it has
/// been deposed and does not know it yet) instead of streaming stale
/// history.
struct ReplSubscribeRequest {
  std::string follower_id;
  uint64_t start_lsn = 1;
  uint64_t epoch = 0;
};

/// kReplHello — first frame of every replication stream: announces the
/// leader's current epoch and the LSN of the barrier that opened it
/// (0 for the initial epoch). A rejoining deposed leader compares this
/// against its own log to find the divergence point before accepting any
/// frames (DESIGN §15).
struct ReplHelloPayload {
  uint64_t leader_epoch = 1;
  uint64_t epoch_start_lsn = 0;
};

/// kReplFrame carries exactly one encoded WAL record (wal::EncodeRecord
/// bytes, LSN embedded) as its payload — no extra wrapper, so the record
/// CRC story stays the WAL's own. No codec needed.

/// kReplSnapshot — a checkpoint image transferred whole (file bytes,
/// validated on the follower before anything is touched). Carries the
/// leader's epoch state at the checkpoint so the installer adopts it
/// along with the LSN space; the epoch fields are encoded only when
/// repl_epoch > 1 (back-compat with PR-7 peers, which are epoch 1 by
/// definition).
struct ReplSnapshotPayload {
  uint64_t checkpoint_lsn = 0;
  bool has_snapshot = false;
  bool has_catalog = false;
  std::string snapshot_bytes;
  std::string catalog_bytes;
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;
};

/// kReplAck — follower reports its highest contiguously applied LSN.
struct ReplAckPayload {
  uint64_t acked_lsn = 0;
};

// ---- failover / admin (DESIGN §15) ----

/// kReplStatus — replication role/progress introspection, answered by
/// leaders and followers alike (this is how `xia_admin promote` picks
/// the most-caught-up follower).
struct ReplStatusRequest {};

struct ReplStatusFollower {
  std::string follower_id;
  std::string remote;
  uint64_t acked_lsn = 0;
  bool connected = false;
};

struct ReplStatusReply {
  /// "leader" or "follower".
  std::string role;
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;
  uint64_t durable_lsn = 0;
  uint64_t checkpoint_lsn = 0;
  /// Follower: highest contiguously applied LSN. Leader: 0.
  uint64_t applied_lsn = 0;
  /// Follower: the leader endpoint it follows. Leader: its own endpoint.
  std::string leader_endpoint;
  /// Leader only: per-follower stream progress.
  std::vector<ReplStatusFollower> followers;
};

/// kPromote — orders a follower to become the leader: bump the epoch,
/// write the barrier, start accepting writes. Reply carries the new
/// epoch and the barrier LSN that opened it.
struct PromoteRequest {};
struct PromoteReply {
  uint64_t epoch = 0;
  uint64_t barrier_lsn = 0;
};

/// kFollow — orders a node to (re)join as a follower of `host:port`
/// (the deposed-leader rejoin path; also flips a fresh node into
/// follower mode at runtime).
struct FollowRequest {
  std::string host;
  uint16_t port = 0;
};

/// kCreateIndex — DDL over the wire: create a real or virtual index.
/// `online` selects the non-blocking build (DESIGN §16): the server scans
/// under shared locks while a side log captures concurrent mutations,
/// and only the final swap takes the exclusive lock. Offline (default)
/// builds under the exclusive lock like any mutation.
struct CreateIndexRequest {
  std::string name;
  std::string collection;
  /// Linear XPath pattern text, e.g. "/Security/Symbol".
  std::string pattern;
  /// xpath::ValueType as u8 (0 = string, 1 = numeric).
  uint8_t value_type = 0;
  bool structural = false;
  bool is_virtual = false;
  bool online = false;
};

/// kReply payload for kCreateIndex.
struct CreateIndexReply {
  uint64_t entry_count = 0;
  uint64_t size_bytes = 0;
  bool online = false;
  /// Wall-clock build time; for online builds stall_seconds is the part
  /// spent holding the exclusive lock and delta_ops the side-log records
  /// replayed into the new index.
  double build_seconds = 0;
  double stall_seconds = 0;
  uint64_t delta_ops = 0;
};

std::string EncodeQueryRequest(const QueryRequest& req);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

std::string EncodeMutationRequest(const MutationRequest& req);
Result<MutationRequest> DecodeMutationRequest(std::string_view payload);

std::string EncodeAdviseRequest(const AdviseRequest& req);
Result<AdviseRequest> DecodeAdviseRequest(std::string_view payload);

std::string EncodeExplainRequest(const ExplainRequest& req);
Result<ExplainRequest> DecodeExplainRequest(std::string_view payload);

std::string EncodeMetricsRequest(const MetricsRequest& req);
Result<MetricsRequest> DecodeMetricsRequest(std::string_view payload);

std::string EncodeExecReply(const ExecReply& reply);
Result<ExecReply> DecodeExecReply(std::string_view payload);

std::string EncodeAdviseReply(const AdviseReply& reply);
Result<AdviseReply> DecodeAdviseReply(std::string_view payload);

std::string EncodeTextReply(const TextReply& reply);
Result<TextReply> DecodeTextReply(std::string_view payload);

std::string EncodeErrorReply(const ErrorReply& reply);
Result<ErrorReply> DecodeErrorReply(std::string_view payload);

std::string EncodeReplSubscribeRequest(const ReplSubscribeRequest& req);
Result<ReplSubscribeRequest> DecodeReplSubscribeRequest(
    std::string_view payload);

std::string EncodeReplHelloPayload(const ReplHelloPayload& hello);
Result<ReplHelloPayload> DecodeReplHelloPayload(std::string_view payload);

std::string EncodeReplStatusRequest(const ReplStatusRequest& req);
Result<ReplStatusRequest> DecodeReplStatusRequest(std::string_view payload);

std::string EncodeReplStatusReply(const ReplStatusReply& reply);
Result<ReplStatusReply> DecodeReplStatusReply(std::string_view payload);

std::string EncodePromoteRequest(const PromoteRequest& req);
Result<PromoteRequest> DecodePromoteRequest(std::string_view payload);

std::string EncodePromoteReply(const PromoteReply& reply);
Result<PromoteReply> DecodePromoteReply(std::string_view payload);

std::string EncodeFollowRequest(const FollowRequest& req);
Result<FollowRequest> DecodeFollowRequest(std::string_view payload);

std::string EncodeCreateIndexRequest(const CreateIndexRequest& req);
Result<CreateIndexRequest> DecodeCreateIndexRequest(std::string_view payload);

std::string EncodeCreateIndexReply(const CreateIndexReply& reply);
Result<CreateIndexReply> DecodeCreateIndexReply(std::string_view payload);

std::string EncodeReplSnapshotPayload(const ReplSnapshotPayload& snap);
Result<ReplSnapshotPayload> DecodeReplSnapshotPayload(
    std::string_view payload);

std::string EncodeReplAckPayload(const ReplAckPayload& ack);
Result<ReplAckPayload> DecodeReplAckPayload(std::string_view payload);

/// Reconstructs the Status a kError frame describes (what the client
/// library returns to its caller).
Status ErrorReplyToStatus(const ErrorReply& reply);

}  // namespace xia::net

#endif  // XIA_NET_WIRE_H_
