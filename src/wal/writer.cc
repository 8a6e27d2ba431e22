#include "wal/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "wal/log_file.h"

namespace xia::wal {

namespace {

/// kInterval: minimum spacing between fsyncs.
constexpr double kFsyncIntervalSeconds = 0.05;
/// kInterval/kOff: staged bytes that force a write-out even before the
/// interval elapses (bounds memory, keeps batches disk-friendly).
constexpr size_t kMaxPendingBytes = 256u << 10;

void ObserveBatchSize(uint64_t records) {
#ifndef XIA_OBS_OFF
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "xia.wal.commit.batch", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  histogram->Observe(static_cast<double>(records));
#else
  (void)records;
#endif
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" + std::string(name) +
                                 "' (want always|interval|off)");
}

WalWriter::WalWriter(WalWriterOptions options)
    : options_(std::move(options)),
      last_sync_time_(std::chrono::steady_clock::now()) {}

WalWriter::~WalWriter() { (void)Close(); }

Status WalWriter::Open(const std::string& path, uint64_t next_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ >= 0) return Status::FailedPrecondition("WAL writer already open");
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::Internal("cannot open WAL " + path + " for append: " +
                            std::strerror(errno));
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  fd_ = fd;
  file_bytes_ = size < 0 ? 0 : static_cast<uint64_t>(size);
  next_lsn_ = next_lsn;
  last_appended_lsn_ = next_lsn - 1;
  written_lsn_ = next_lsn - 1;
  durable_lsn_ = next_lsn - 1;
  poison_ = Status::OK();
  return Status::OK();
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::OK();
  Status s = Status::OK();
  if (!pending_.empty() && poison_.ok()) {
    s = FlushLocked(lock, options_.policy != FsyncPolicy::kOff);
  }
  ::close(fd_);
  fd_ = -1;
  return s;
}

Result<uint64_t> WalWriter::Append(WalRecord record) {
  XIA_FAULT_INJECT(fault::points::kWalAppend);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!poison_.ok()) return poison_;
  record.lsn = next_lsn_++;
  encode_scratch_.clear();
  EncodeRecordTo(record, &encode_scratch_);
  AppendFrame(encode_scratch_, &pending_);
  ++pending_records_;
  ++appended_records_;
  last_appended_lsn_ = record.lsn;
  XIA_OBS_COUNT("xia.wal.appends", 1);
  return record.lsn;
}

Status WalWriter::AppendWithLsn(const WalRecord& record) {
  XIA_FAULT_INJECT(fault::points::kWalAppend);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!poison_.ok()) return poison_;
  if (record.lsn != next_lsn_) {
    return Status::FailedPrecondition(
        "replicated append lsn " + std::to_string(record.lsn) +
        " does not continue the log (next lsn " + std::to_string(next_lsn_) +
        ")");
  }
  next_lsn_ = record.lsn + 1;
  encode_scratch_.clear();
  EncodeRecordTo(record, &encode_scratch_);
  AppendFrame(encode_scratch_, &pending_);
  ++pending_records_;
  ++appended_records_;
  last_appended_lsn_ = record.lsn;
  XIA_OBS_COUNT("xia.wal.appends", 1);
  return Status::OK();
}

bool WalWriter::CoveredLocked(uint64_t lsn) const {
  if (options_.policy == FsyncPolicy::kAlways) return durable_lsn_ >= lsn;
  // kInterval/kOff acknowledge as soon as the record is staged: one
  // bounded-loss window on a crash, zero syscalls on the commit path.
  return last_appended_lsn_ >= lsn;
}

bool WalWriter::FlushDueLocked() const {
  if (pending_.empty()) return false;
  if (pending_.size() >= kMaxPendingBytes) return true;
  if (options_.policy == FsyncPolicy::kInterval) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         last_sync_time_)
               .count() >= kFsyncIntervalSeconds;
  }
  return false;
}

Status WalWriter::Commit(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!poison_.ok()) return poison_;
    if (CoveredLocked(lsn)) {
      // kInterval/kOff: the commit itself is already acknowledged, but
      // piggyback the deferred write-out when a trigger fires (buffer
      // over kMaxPendingBytes, or the fsync interval elapsed). A flush
      // failure poisons the writer for *later* commits; this one keeps
      // its staged-only guarantee either way.
      if (!flushing_ && FlushDueLocked()) {
        (void)FlushLocked(lock, /*force_sync=*/false);
      }
      XIA_OBS_COUNT("xia.wal.commits", 1);
      return Status::OK();
    }
    if (!flushing_) break;
    cv_.wait(lock);
  }
  Status s = FlushLocked(lock, /*force_sync=*/false);
  if (!s.ok()) return s;
  if (!CoveredLocked(lsn)) {
    // Covers the kAlways + injected-fsync-fault case: the bytes were
    // written but the sync did not happen, so the commit is not durable.
    return Status::Internal("WAL commit of lsn " + std::to_string(lsn) +
                            " not durable (fsync skipped)");
  }
  XIA_OBS_COUNT("xia.wal.commits", 1);
  return Status::OK();
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!poison_.ok()) return poison_;
    if (pending_.empty() &&
        (options_.policy == FsyncPolicy::kOff || durable_lsn_ == written_lsn_))
      return Status::OK();
    if (!flushing_) break;
    cv_.wait(lock);
  }
  return FlushLocked(lock, /*force_sync=*/true);
}

Status WalWriter::FlushLocked(std::unique_lock<std::mutex>& lock,
                              bool force_sync) {
  flushing_ = true;
  std::string batch;
  batch.swap(pending_);
  const uint64_t batch_records = pending_records_;
  pending_records_ = 0;
  const uint64_t batch_last_lsn = last_appended_lsn_;
  const auto now = std::chrono::steady_clock::now();
  bool want_sync = force_sync;
  switch (options_.policy) {
    case FsyncPolicy::kAlways:
      want_sync = true;
      break;
    case FsyncPolicy::kInterval:
      if (std::chrono::duration<double>(now - last_sync_time_).count() >=
          kFsyncIntervalSeconds) {
        want_sync = true;
      }
      break;
    case FsyncPolicy::kOff:
      want_sync = false;
      break;
  }
  lock.unlock();

  Status write_status = Status::OK();
  if (!batch.empty()) write_status = WriteRaw(batch);

  Status sync_status = Status::OK();
  bool synced = false;
  bool sync_poisons = false;
  if (write_status.ok() && want_sync) {
    // Manual fault check (XIA_FAULT_INJECT would return with flushing_
    // still set): an injected fsync fault leaves the bytes written but
    // not durable and does NOT poison — a retry can succeed.
    static fault::FaultPoint* fsync_point =
        fault::FaultRegistry::Global().GetPoint(fault::points::kWalFsync);
    if (fsync_point->ShouldFire()) {
      sync_status = fsync_point->InjectedStatus();
    } else {
      if (options_.test_hook) options_.test_hook("wal.append.before_fsync");
      sync_status = SyncRaw();
      sync_poisons = !sync_status.ok();
      synced = sync_status.ok();
    }
  }

  lock.lock();
  flushing_ = false;
  if (!write_status.ok()) {
    // The file tail is in an unknown state; no later commit may claim
    // durability past it.
    poison_ = write_status;
  } else {
    written_lsn_ = batch_last_lsn;
    file_bytes_ += batch.size();
    XIA_OBS_COUNT("xia.wal.bytes_appended", batch.size());
    if (synced) {
      durable_lsn_ = written_lsn_;
      last_sync_time_ = now;
      ++fsyncs_;
      XIA_OBS_COUNT("xia.wal.fsyncs", 1);
      ObserveBatchSize(batch_records == 0 ? 1 : batch_records);
    } else if (sync_poisons) {
      poison_ = sync_status;
    }
  }
  cv_.notify_all();
  if (!write_status.ok()) return write_status;
  return sync_status;
}

Status WalWriter::WriteRaw(std::string_view bytes) {
  size_t written = 0;
  const size_t half = bytes.size() / 2;
  bool hook_fired = false;
  while (written < bytes.size()) {
    // The crash harness kills the process mid-batch here, leaving a torn
    // frame for recovery to salvage.
    if (options_.test_hook && !hook_fired && written >= half && half > 0) {
      hook_fired = true;
      options_.test_hook("wal.append.mid_write");
    }
    size_t chunk = bytes.size() - written;
    if (options_.test_hook && !hook_fired) chunk = std::min(chunk, half);
    if (chunk == 0) chunk = bytes.size() - written;
    const ssize_t n = ::write(fd_, bytes.data() + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("WAL write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::SyncRaw() {
  if (::fsync(fd_) != 0) {
    return Status::Internal(std::string("WAL fsync failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status WalWriter::ResetFile(const std::string& path, uint64_t next_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "WAL reset with staged records pending; Sync() first");
  }
  ::close(fd_);
  fd_ = -1;
  XIA_RETURN_IF_ERROR(InitLogFile(path));
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::Internal("cannot reopen WAL " + path + ": " +
                            std::strerror(errno));
  }
  fd_ = fd;
  file_bytes_ = sizeof(kWalMagic);
  if (next_lsn != 0) {
    next_lsn_ = next_lsn;
    last_appended_lsn_ = next_lsn - 1;
    written_lsn_ = next_lsn - 1;
    durable_lsn_ = next_lsn - 1;
  }
  return Status::OK();
}

uint64_t WalWriter::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t WalWriter::last_appended_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_appended_lsn_;
}

uint64_t WalWriter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t WalWriter::appended_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_records_;
}

uint64_t WalWriter::file_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_bytes_;
}

uint64_t WalWriter::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

}  // namespace xia::wal
