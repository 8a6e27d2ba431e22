#include "repl/applier.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/fault.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "wal/replay.h"

namespace xia::repl {

namespace {
constexpr size_t kRecvChunk = 64 * 1024;
constexpr double kConnectTimeoutSeconds = 2.0;
/// Receive poll granularity; also the stop-latency bound while idle.
constexpr double kPollSeconds = 0.05;
/// Ack at least every N applied records...
constexpr size_t kAckEveryRecords = 32;
/// ...and whenever this much time passed with unacked progress.
constexpr double kAckIntervalSeconds = 0.05;
/// Reconnect backoff (OnlineAdvisor shape): jittered exponential.
constexpr double kBackoffInitialSeconds = 0.05;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffMaxSeconds = 2.0;
/// Seed for the backoff jitter, so reconnect timing is reproducible.
constexpr uint64_t kJitterSeed = 42;
}  // namespace

Applier::Applier(ApplierOptions options, Database* db)
    : options_(std::move(options)), db_(db), wal_(db->wal()) {}

Applier::~Applier() { Stop(); }

void Applier::Start() {
  if (started_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread(&Applier::Run, this);
}

void Applier::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  started_.store(false, std::memory_order_release);
}

ApplierStats Applier::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Applier::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.last_error = status.ToString();
  stats_.connected = false;
}

void Applier::Run() {
  Random jitter(kJitterSeed);
  double backoff = kBackoffInitialSeconds;
  while (!stop_.load(std::memory_order_acquire)) {
    const Status ended = RunOnce();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.connected = false;
      if (!ended.ok()) stats_.last_error = ended.ToString();
      if (!stats_.sticky_error.empty()) return;  // halted: divergence
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (ended.ok()) {
      backoff = kBackoffInitialSeconds;  // clean end: retry promptly
    }
    // Jittered exponential backoff (the OnlineAdvisor shape): sleep
    // 0.5x..1x of the current backoff, in small slices so Stop() is
    // never blocked behind a long sleep.
    const double sleep_s = backoff * (0.5 + 0.5 * jitter.NextDouble());
    Stopwatch slept;
    while (slept.ElapsedSeconds() < sleep_s &&
           !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    backoff = std::min(backoff * kBackoffMultiplier, kBackoffMaxSeconds);
  }
}

Status Applier::RunOnce() {
  // Resume from what the local WAL already holds: recovery has applied
  // everything durable, so the first LSN we need is the next one.
  const uint64_t durable =
      std::max(wal_->GetStatus().next_lsn - 1, wal_->checkpoint_lsn());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.applied_lsn = durable;
  }

  Result<net::Socket> connected = net::ConnectTcp(
      options_.leader_host, options_.leader_port, kConnectTimeoutSeconds);
  if (!connected.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connect_failures;
    return connected.status();
  }
  net::Socket socket = std::move(*connected);

  net::ReplSubscribeRequest subscribe;
  subscribe.follower_id = options_.follower_id;
  subscribe.start_lsn = durable + 1;
  subscribe.epoch = wal_->repl_epoch();
  XIA_RETURN_IF_ERROR(socket.SendAll(
      net::EncodeFrame(net::MsgType::kReplSubscribe, 0,
                       net::EncodeReplSubscribeRequest(subscribe))));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.connected = true;
    ++stats_.resubscribes;
  }
  XIA_OBS_COUNT("xia.repl.subscribes", 1);

  net::FrameReader reader;
  char buf[kRecvChunk];
  Stopwatch since_ack;
  size_t unacked = 0;
  const auto send_ack = [&]() -> Status {
    net::ReplAckPayload ack;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ack.acked_lsn = stats_.applied_lsn;
    }
    // The ack's request_id carries our witnessed epoch: a deposed
    // leader reading an ack from a newer epoch stops streaming.
    XIA_RETURN_IF_ERROR(socket.SendAll(
        net::EncodeFrame(net::MsgType::kReplAck, wal_->repl_epoch(),
                         net::EncodeReplAckPayload(ack))));
    unacked = 0;
    since_ack.Restart();
    return Status::OK();
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Drain buffered frames before reading more bytes.
    for (;;) {
      net::Frame frame;
      std::string parse_error;
      const net::FrameReader::Next next = reader.Poll(&frame, &parse_error);
      if (next == net::FrameReader::Next::kNeedMore) break;
      if (next == net::FrameReader::Next::kBad) {
        // A flipped bit anywhere in the stream lands here (frame CRC):
        // nothing was applied; resubscribe from the last good LSN.
        return Status::ParseError("leader stream: " + parse_error);
      }
      // Stale-epoch fencing: a stream frame stamped with an epoch older
      // than what this node has witnessed comes from a deposed leader —
      // reject it, never apply (stamp 0 = a PR-7 leader, epoch 1).
      if ((frame.type == net::MsgType::kReplFrame ||
           frame.type == net::MsgType::kReplSnapshot) &&
          frame.request_id != 0 && frame.request_id < wal_->repl_epoch()) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.fenced_frames;
        }
        XIA_OBS_COUNT("xia.repl.fenced_frames", 1);
        return Status::Fenced(
            "stream frame from stale epoch " +
            std::to_string(frame.request_id) + ", local epoch is " +
            std::to_string(wal_->repl_epoch()));
      }
      Status handled = Status::OK();
      switch (frame.type) {
        case net::MsgType::kReplFrame:
          handled = HandleRecordFrame(frame.payload);
          break;
        case net::MsgType::kReplSnapshot:
          handled = HandleSnapshotFrame(frame.payload);
          break;
        case net::MsgType::kReplHello:
          handled = HandleHelloFrame(frame.payload);
          break;
        case net::MsgType::kError: {
          XIA_ASSIGN_OR_RETURN(const net::ErrorReply err,
                               net::DecodeErrorReply(frame.payload));
          return ErrorReplyToStatus(err);
        }
        default:
          return Status::InvalidArgument(
              "unexpected frame type on replication stream");
      }
      XIA_RETURN_IF_ERROR(handled);
      ++unacked;
    }

    if (unacked > 0) {
      // Ack eagerly once the pipe is drained: a quorum-commit leader is
      // parked on exactly this ack, and batching past the last in-flight
      // frame would charge every synchronous commit the full poll
      // interval. With more bytes already queued, batch as before.
      XIA_ASSIGN_OR_RETURN(const bool more_inflight,
                           socket.WaitReadable(0));
      if (!more_inflight || unacked >= kAckEveryRecords ||
          since_ack.ElapsedSeconds() >= kAckIntervalSeconds) {
        XIA_RETURN_IF_ERROR(send_ack());
      }
    }

    if (options_.checkpoint_every_records > 0 &&
        since_checkpoint_ >= options_.checkpoint_every_records) {
      XIA_RETURN_IF_ERROR(db_->Checkpoint());
      since_checkpoint_ = 0;
    }

    XIA_ASSIGN_OR_RETURN(const bool readable,
                         socket.WaitReadable(kPollSeconds));
    if (!readable) {
      // Idle: keep the leader's acked-LSN view fresh anyway.
      if (unacked > 0) XIA_RETURN_IF_ERROR(send_ack());
      continue;
    }
    XIA_FAULT_INJECT(fault::points::kReplRecv);
    const Result<size_t> got = socket.Recv(buf, sizeof(buf));
    XIA_RETURN_IF_ERROR(got.status());
    if (*got == 0) {
      return Status::Unavailable("leader closed the replication stream");
    }
    reader.Feed(std::string_view(buf, *got));
  }
  // Clean stop: best-effort final ack so the leader's view is current.
  if (unacked > 0) (void)send_ack();
  return Status::OK();
}

Status Applier::HandleRecordFrame(const std::string& payload) {
  XIA_ASSIGN_OR_RETURN(const wal::WalRecord record,
                       wal::DecodeRecord(payload));
  uint64_t applied = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    applied = stats_.applied_lsn;
  }
  if (record.lsn <= applied) {
    // Redelivery after a resubscribe: already durable and applied.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.duplicates_skipped;
    XIA_OBS_COUNT("xia.repl.duplicates_skipped", 1);
    return Status::OK();
  }
  if (record.lsn != applied + 1) {
    // A gap means this stream skipped something; resubscribe from the
    // last good LSN rather than apply out of order.
    return Status::Unavailable(
        "replication stream gap: got lsn " + std::to_string(record.lsn) +
        ", expected " + std::to_string(applied + 1));
  }

  std::unique_lock<std::shared_mutex> lock(db_->mutex());
  XIA_FAULT_INJECT(fault::points::kReplApply);
  Hook("repl.apply.before_wal");
  // Log first, then apply: a crash between the two replays the record
  // from the local WAL on restart. In-process failures past this point
  // are divergences (the leader applied this record successfully), so
  // they halt the applier sticky instead of retrying.
  Status status = wal_->AppendReplicated(record);
  if (!status.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.sticky_error = "replicated append failed: " + status.ToString();
    return status;
  }
  Hook("repl.apply.mid_apply");
  status = wal::ApplyRecord(record, &db_->store(), &db_->catalog(),
                            &db_->statistics());
  if (!status.ok()) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.sticky_error =
        "record " + std::to_string(record.lsn) +
        " applied on the leader but failed locally: " + status.ToString();
    return status;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.applied_lsn = record.lsn;
    ++stats_.records_applied;
  }
  ++since_checkpoint_;
  XIA_OBS_COUNT("xia.repl.records_applied", 1);
  XIA_OBS_GAUGE_SET("xia.repl.applied_lsn", static_cast<double>(record.lsn));
  return Status::OK();
}

Status Applier::HandleSnapshotFrame(const std::string& payload) {
  XIA_ASSIGN_OR_RETURN(net::ReplSnapshotPayload snap,
                       net::DecodeReplSnapshotPayload(payload));
  Hook("repl.snapshot.before_install");
  wal::CheckpointImage image;
  image.checkpoint_lsn = snap.checkpoint_lsn;
  image.has_snapshot = snap.has_snapshot;
  image.has_catalog = snap.has_catalog;
  image.snapshot_bytes = std::move(snap.snapshot_bytes);
  image.catalog_bytes = std::move(snap.catalog_bytes);
  image.repl_epoch = snap.repl_epoch;
  image.epoch_start_lsn = snap.epoch_start_lsn;
  {
    std::unique_lock<std::shared_mutex> lock(db_->mutex());
    // Fail-closed: a corrupt image returns kDataLoss with nothing
    // touched, and the retry loop resubscribes.
    XIA_RETURN_IF_ERROR(wal_->InstallCheckpoint(
        image, &db_->store(), &db_->catalog(), &db_->statistics()));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.applied_lsn = image.checkpoint_lsn;
    ++stats_.snapshots_installed;
  }
  XIA_OBS_COUNT("xia.repl.snapshots_installed", 1);
  XIA_OBS_GAUGE_SET("xia.repl.applied_lsn",
                    static_cast<double>(image.checkpoint_lsn));
  return Status::OK();
}

Status Applier::HandleHelloFrame(const std::string& payload) {
  XIA_ASSIGN_OR_RETURN(const net::ReplHelloPayload hello,
                       net::DecodeReplHelloPayload(payload));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.leader_epoch = hello.leader_epoch;
  }
  const uint64_t local_epoch = wal_->repl_epoch();
  if (hello.leader_epoch < local_epoch) {
    // We are subscribed to a deposed leader (admin misdirection, or the
    // promotion raced our subscribe). Do not apply anything from it.
    XIA_OBS_COUNT("xia.repl.fenced_hellos", 1);
    return Status::Fenced(
        "leader announced stale epoch " +
        std::to_string(hello.leader_epoch) + ", local epoch is " +
        std::to_string(local_epoch));
  }
  const uint64_t durable =
      std::max(wal_->GetStatus().next_lsn - 1, wal_->checkpoint_lsn());
  if (hello.leader_epoch > local_epoch && hello.epoch_start_lsn > 0 &&
      durable >= hello.epoch_start_lsn) {
    // Divergence: our log holds LSNs at/past the new epoch's barrier,
    // but they were written by the old epoch (we never witnessed the
    // barrier). Unwind them before accepting the new epoch's history.
    Hook("repl.hello.before_truncate");
    if (wal_->checkpoint_lsn() < hello.epoch_start_lsn) {
      uint64_t truncated = 0;
      {
        std::unique_lock<std::shared_mutex> lock(db_->mutex());
        XIA_ASSIGN_OR_RETURN(
            truncated,
            wal_->TruncateSuffix(hello.epoch_start_lsn, &db_->store(),
                                 &db_->catalog(), &db_->statistics()));
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.suffix_truncations;
        stats_.records_truncated += truncated;
      }
      XIA_OBS_COUNT("xia.repl.suffix_truncations", 1);
      return Status::Unavailable(
          "truncated " + std::to_string(truncated) +
          " diverged records past barrier " +
          std::to_string(hello.epoch_start_lsn) + "; resubscribing");
    }
    // A local checkpoint already swallowed the divergent records; they
    // cannot be unwound in place, so fall back to a full resync.
    {
      std::unique_lock<std::shared_mutex> lock(db_->mutex());
      XIA_RETURN_IF_ERROR(wal_->ResetForResync(
          &db_->store(), &db_->catalog(), &db_->statistics()));
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.full_resyncs;
    }
    XIA_OBS_COUNT("xia.repl.full_resyncs", 1);
    return Status::Unavailable(
        "local checkpoint covers diverged records; reset for full resync");
  }
  return Status::OK();
}

}  // namespace xia::repl
