#include "repl/stream.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace xia::repl {

namespace {

constexpr size_t kBatchRecords = 256;
/// How long one ReadTail blocks; bounds stop-latency when idle.
constexpr double kTailWaitSeconds = 0.05;
constexpr size_t kRecvChunk = 4 * 1024;

/// The follower->leader half of a stream session, run on its own thread
/// so an ack wakes quorum waiters the moment it arrives — a quorum
/// commit must not wait out the sender's WAL-tail poll interval before
/// the leader even reads the ack off the socket. Sets `failed` (with
/// `status` written first) when the stream should end: the follower
/// closed the connection, broke framing, or acked from a HIGHER epoch
/// (someone was promoted past us).
void ReadAcks(net::Socket* socket, const StreamContext& ctx,
              const std::string& follower_id,
              const std::atomic<bool>* stop, Status* status,
              std::atomic<bool>* failed) {
  const auto fail = [&](Status why) {
    *status = std::move(why);
    failed->store(true, std::memory_order_release);
  };
  net::FrameReader reader;
  char buf[kRecvChunk];
  while (!stop->load(std::memory_order_acquire)) {
    const Result<bool> readable = socket->WaitReadable(kTailWaitSeconds);
    if (!readable.ok()) return fail(readable.status());
    if (!*readable) continue;
    const Result<size_t> got = socket->Recv(buf, sizeof(buf));
    if (!got.ok()) return fail(got.status());
    if (*got == 0) return fail(Status::OK());  // orderly EOF: hung up
    reader.Feed(std::string_view(buf, *got));
    for (;;) {
      net::Frame frame;
      std::string parse_error;
      const net::FrameReader::Next next = reader.Poll(&frame, &parse_error);
      if (next == net::FrameReader::Next::kNeedMore) break;
      if (next == net::FrameReader::Next::kBad) {
        return fail(Status::ParseError("follower stream: " + parse_error));
      }
      if (frame.type != net::MsgType::kReplAck) {
        return fail(Status::InvalidArgument(
            "unexpected frame type from subscribed follower"));
      }
      const uint64_t leader_epoch = ctx.db->repl_epoch();
      if (frame.request_id > leader_epoch) {
        // The follower has witnessed a newer epoch than ours: we are a
        // deposed leader that has not heard yet. Stop streaming.
        XIA_OBS_COUNT("xia.repl.fenced_acks", 1);
        return fail(Status::Fenced(
            "follower acked from epoch " + std::to_string(frame.request_id) +
            ", ours is " + std::to_string(leader_epoch)));
      }
      const Result<net::ReplAckPayload> ack =
          net::DecodeReplAckPayload(frame.payload);
      if (!ack.ok()) return fail(ack.status());
      ctx.hub->OnAck(follower_id, ack->acked_lsn);
      XIA_OBS_COUNT("xia.repl.acks_received", 1);
    }
  }
}

/// Reads the current checkpoint image (under the shared db lock, so a
/// concurrent checkpoint cannot swap files mid-read) and ships it,
/// stamped with the leader's epoch.
Status SendSnapshot(net::Socket* socket, const StreamContext& ctx,
                    uint64_t leader_epoch, uint64_t* resume_lsn) {
  wal::CheckpointImage image;
  {
    std::shared_lock<std::shared_mutex> lock(ctx.db->mutex());
    XIA_ASSIGN_OR_RETURN(image, ctx.db->wal()->ReadCheckpointImage());
  }
  XIA_FAULT_INJECT(fault::points::kReplSnapshotXfer);
  net::ReplSnapshotPayload payload;
  payload.checkpoint_lsn = image.checkpoint_lsn;
  payload.has_snapshot = image.has_snapshot;
  payload.has_catalog = image.has_catalog;
  payload.snapshot_bytes = std::move(image.snapshot_bytes);
  payload.catalog_bytes = std::move(image.catalog_bytes);
  payload.repl_epoch = image.repl_epoch;
  payload.epoch_start_lsn = image.epoch_start_lsn;
  const std::string encoded = net::EncodeReplSnapshotPayload(payload);
  if (encoded.size() > net::kMaxPayloadBytes) {
    return Status::ResourceExhausted(
        "checkpoint image exceeds the wire frame limit (" +
        std::to_string(encoded.size()) + " bytes)");
  }
  XIA_RETURN_IF_ERROR(socket->SendAll(net::EncodeFrame(
      net::MsgType::kReplSnapshot, leader_epoch, encoded)));
  XIA_OBS_COUNT("xia.repl.snapshots_sent", 1);
  *resume_lsn = payload.checkpoint_lsn + 1;
  return Status::OK();
}

}  // namespace

Status RunReplStream(net::Socket* socket,
                     const net::ReplSubscribeRequest& subscribe,
                     const StreamContext& ctx) {
  // Fence a subscriber from the future: if the follower has witnessed a
  // newer epoch than ours, this node was deposed and must not stream.
  // The follower gets a kError(kFenced) frame so it knows why.
  const uint64_t leader_epoch = ctx.db->repl_epoch();
  if (subscribe.epoch > leader_epoch) {
    net::ErrorReply fenced;
    fenced.code = StatusCode::kFenced;
    fenced.message = "subscriber witnessed epoch " +
                     std::to_string(subscribe.epoch) +
                     ", this leader is at " + std::to_string(leader_epoch);
    (void)socket->SendAll(net::EncodeFrame(
        net::MsgType::kError, 0, net::EncodeErrorReply(fenced)));
    XIA_OBS_COUNT("xia.repl.fenced_subscribes", 1);
    return Status::Fenced(fenced.message);
  }

  ctx.hub->OnSubscribe(subscribe.follower_id, subscribe.start_lsn);
  wal::TailCursor cursor;
  cursor.next_lsn = std::max<uint64_t>(subscribe.start_lsn, 1);

  // The inbound half runs concurrently: this thread owns all reads from
  // the socket (this one owns all writes), posts acks straight into the
  // hub, and flags terminal conditions for the send loop to pick up.
  std::atomic<bool> ack_stop{false};
  std::atomic<bool> ack_failed{false};
  Status ack_status;  // written (once) before ack_failed is set
  std::thread ack_reader(ReadAcks, socket, ctx, subscribe.follower_id,
                         &ack_stop, &ack_status, &ack_failed);

  // Announce our epoch and its barrier LSN first, so a rejoining
  // deposed leader can locate the divergence point before any frame.
  net::ReplHelloPayload hello;
  hello.leader_epoch = leader_epoch;
  hello.epoch_start_lsn = ctx.db->wal()->epoch_start_lsn();
  Status result = socket->SendAll(
      net::EncodeFrame(net::MsgType::kReplHello, leader_epoch,
                       net::EncodeReplHelloPayload(hello)));

  while (result.ok() && !ctx.stopping->load(std::memory_order_acquire)) {
    if (ctx.demoted != nullptr &&
        ctx.demoted->load(std::memory_order_acquire)) {
      // Deposed mid-stream: stop immediately rather than ship frames
      // that the new epoch will fence anyway.
      result = Status::Fenced("leader demoted to follower");
      break;
    }
    if (ack_failed.load(std::memory_order_acquire)) {
      result = ack_status;  // OK when the follower simply hung up
      break;
    }
    // Re-read per batch: a self-promotion bumps the epoch mid-stream
    // and the frames after the barrier must carry the new stamp.
    const uint64_t cur_epoch = ctx.db->repl_epoch();

    Result<wal::TailBatch> batch =
        ctx.db->wal()->ReadTail(&cursor, kBatchRecords, kTailWaitSeconds);
    if (!batch.ok()) {
      result = batch.status();
      break;
    }
    if (batch->need_checkpoint) {
      result = SendSnapshot(socket, ctx, cur_epoch, &cursor.next_lsn);
      if (!result.ok()) break;
      continue;
    }
    bool send_failed = false;
    for (const std::string& payload : batch->payloads) {
      const Status injected = [] {
        XIA_FAULT_INJECT(fault::points::kReplSend);
        return Status::OK();
      }();
      if (injected.ok()) {
        result = socket->SendAll(net::EncodeFrame(
            net::MsgType::kReplFrame, cur_epoch, payload));
      } else {
        result = injected;
      }
      if (!result.ok()) {
        send_failed = true;
        break;
      }
      if (ctx.test_hook) ctx.test_hook("repl.stream.mid_send");
      XIA_OBS_COUNT("xia.repl.frames_sent", 1);
    }
    if (send_failed) break;
  }
  ack_stop.store(true, std::memory_order_release);
  ack_reader.join();
  ctx.hub->OnDisconnect(subscribe.follower_id);
  return result;
}

}  // namespace xia::repl
