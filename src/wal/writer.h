// Buffered group-commit WAL writer.
//
// Append() assigns the next LSN and stages the framed record in an
// in-memory batch; Commit(lsn) blocks until that LSN is covered by the
// configured fsync policy:
//
//   kAlways    commit returns only after the record is write()n AND
//              fsync()ed — durable across power loss.
//   kInterval  commit returns as soon as the record is staged; the
//              buffer is write()n + fsync()ed at most once per
//              `fsync_interval_seconds` (or when it exceeds
//              `max_pending_bytes`), piggybacked on whichever commit
//              crosses the trigger — bounded loss (one interval) on any
//              crash, like synchronous_commit=off.
//   kOff       commit returns once staged; the buffer is write()n on
//              the size trigger and on Sync()/Close(), never fsync()ed
//              (benchmarks, tests).
//
// Group commit: the first committer to find no flush in progress becomes
// the leader, swaps the whole pending batch out under the lock, performs
// the write/fsync outside the lock, and wakes every waiter — concurrent
// committers ride the leader's fsync, which is where the batch-size
// histogram (xia.wal.commit.batch) comes from.
//
// A failed write() poisons the writer (sticky error): the file tail is
// in an unknown state, so every later Commit reports the original
// failure instead of pretending to be durable. Injected fsync faults
// (fault point xia.fault.wal.fsync) do NOT poison — the bytes are
// written, just not yet durable, and a retry can succeed.

#ifndef XIA_WAL_WRITER_H_
#define XIA_WAL_WRITER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"
#include "wal/record.h"

namespace xia::wal {

/// Test-only hook invoked (when set) at named points inside the writer
/// and the checkpoint protocol; the crash harness uses it to SIGKILL the
/// process at "wal.append.mid_write", "wal.append.before_fsync", etc.
using WalTestHook = std::function<void(const char* point)>;

enum class FsyncPolicy : uint8_t { kAlways = 0, kInterval = 1, kOff = 2 };

/// "always" / "interval" / "off".
const char* FsyncPolicyName(FsyncPolicy policy);

/// Parses a policy name; kInvalidArgument otherwise.
Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name);

struct WalWriterOptions {
  FsyncPolicy policy = FsyncPolicy::kAlways;
  /// Optional crash-harness hook (see WalTestHook).
  WalTestHook test_hook;
};

class WalWriter {
 public:
  explicit WalWriter(WalWriterOptions options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens an existing WAL file for appending; LSNs continue at
  /// `next_lsn`.
  Status Open(const std::string& path, uint64_t next_lsn);

  /// Stages one record, assigning its LSN (returned). The record is NOT
  /// durable until Commit(lsn) succeeds.
  Result<uint64_t> Append(WalRecord record);

  /// Stages one record that already carries its LSN (a replication
  /// follower persisting a leader-assigned LSN). The LSN must be exactly
  /// next_lsn() — contiguity is the applier's protocol invariant, and
  /// enforcing it here means a gap can never silently reach the log.
  Status AppendWithLsn(const WalRecord& record);

  /// Blocks until `lsn` is covered per the fsync policy (see file
  /// comment). Safe to call from many threads; batches ride the leader.
  Status Commit(uint64_t lsn);

  /// Flushes everything staged and fsyncs (unless policy is kOff).
  /// Checkpoints call this before snapshotting.
  Status Sync();

  /// Closes the current file, atomically re-creates `path` as an empty
  /// WAL, and reopens it (checkpoint truncation). Pending records must
  /// have been flushed first (Sync()). `next_lsn` 0 keeps the LSN
  /// counters (checkpoint truncation: LSNs keep increasing); non-zero
  /// rebases them (a follower installing a leader checkpoint adopts the
  /// leader's LSN space).
  Status ResetFile(const std::string& path, uint64_t next_lsn = 0);

  Status Close();

  uint64_t next_lsn() const;
  uint64_t last_appended_lsn() const;
  uint64_t durable_lsn() const;
  uint64_t appended_records() const;
  uint64_t file_bytes() const;
  uint64_t fsyncs() const;
  FsyncPolicy policy() const { return options_.policy; }

 private:
  /// Leader duty: swap out the pending batch, write (+ maybe fsync)
  /// outside the lock, publish results, wake waiters. Requires `lock`
  /// held and flushing_ == false on entry; returns with `lock` held.
  Status FlushLocked(std::unique_lock<std::mutex>& lock, bool force_sync);

  /// Whether `lsn` satisfies the policy's commit condition (mu_ held).
  bool CoveredLocked(uint64_t lsn) const;

  /// kInterval/kOff: whether the staged buffer should be written out now
  /// (size threshold crossed or fsync interval elapsed). mu_ held.
  bool FlushDueLocked() const;

  Status WriteRaw(std::string_view bytes);
  Status SyncRaw();

  const WalWriterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int fd_ = -1;
  std::string pending_;            // framed, not yet written
  std::string encode_scratch_;     // per-append payload buffer, reused
  uint64_t pending_records_ = 0;   // records inside pending_
  uint64_t next_lsn_ = 1;          // next LSN Append will assign
  uint64_t last_appended_lsn_ = 0; // highest LSN staged
  uint64_t written_lsn_ = 0;       // highest LSN write()n
  uint64_t durable_lsn_ = 0;       // highest LSN fsync()ed
  bool flushing_ = false;          // a leader is mid-flush
  Status poison_ = Status::OK();   // sticky write failure
  uint64_t appended_records_ = 0;
  uint64_t file_bytes_ = 0;
  uint64_t fsyncs_ = 0;
  std::chrono::steady_clock::time_point last_sync_time_;
};

}  // namespace xia::wal

#endif  // XIA_WAL_WRITER_H_
