// Follower side of WAL shipping: a background thread that subscribes to
// the leader and replays its committed records locally (DESIGN §14).
//
// Rejoin state machine (each transition is crash-safe — the follower can
// be SIGKILLed anywhere and recover by rerunning it):
//
//   CONNECT     dial the leader with jittered exponential backoff (the
//               OnlineAdvisor backoff shape: 0.05s initial, x2, capped).
//   SUBSCRIBE   start_lsn = local durable LSN + 1 (whatever the local
//               WAL already holds is never requested again); the
//               subscribe carries the highest epoch this node has
//               witnessed so a deposed leader cannot stream to us.
//   HELLO       the leader announces its epoch and barrier LSN first.
//               A rejoining deposed leader detects divergence here: if
//               the leader's epoch is newer and our log already holds
//               the barrier LSN, everything at/past the barrier is dead
//               history from our old epoch — TruncateSuffix unwinds it
//               (or ResetForResync when a checkpoint swallowed it), and
//               the applier resubscribes from the surviving prefix.
//   CATCH-UP    leader answers with a kReplSnapshot when start_lsn
//               predates its checkpoint horizon; InstallCheckpoint
//               validates the image fail-closed, commits it via the
//               MANIFEST rename, and rebases the local log.
//   STREAM      per kReplFrame: duplicate LSNs (redelivery after a
//               resubscribe) are skipped; the next expected LSN is
//               appended to the local WAL first, then applied through
//               the same wal::ApplyRecord used by recovery; a gap or a
//               record that fails to decode forces a resubscribe from
//               the last good LSN. Acks flow back on a small cadence.
//
// The local WAL append happens BEFORE the in-memory apply: if the
// process dies between the two, recovery replays the record from the
// local log — the exact window the crash harness's mid-apply kill
// exercises. A record is acked only after both succeeded.
//
// Lock order: the Database lock (exclusive, per record/snapshot) -> WAL
// internals. The applier never holds it while blocked on the network.

#ifndef XIA_REPL_APPLIER_H_
#define XIA_REPL_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "db/database.h"
#include "util/status.h"
#include "wal/manager.h"
#include "wal/writer.h"

namespace xia::repl {

struct ApplierOptions {
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;
  std::string follower_id = "follower";
  /// Run a local checkpoint every N applied records (0 = only on stop).
  size_t checkpoint_every_records = 0;
  /// Crash-harness hook, called at named points (see DESIGN §14).
  wal::WalTestHook test_hook;
};

struct ApplierStats {
  uint64_t applied_lsn = 0;
  uint64_t records_applied = 0;
  uint64_t duplicates_skipped = 0;
  uint64_t snapshots_installed = 0;
  uint64_t resubscribes = 0;
  uint64_t connect_failures = 0;
  /// Epoch the leader announced in its last kReplHello (0 = none yet).
  uint64_t leader_epoch = 0;
  /// Divergence repairs performed (deposed-leader rejoin).
  uint64_t suffix_truncations = 0;
  uint64_t records_truncated = 0;
  uint64_t full_resyncs = 0;
  /// Stale-epoch frames rejected (kFenced).
  uint64_t fenced_frames = 0;
  bool connected = false;
  /// Non-empty after an unrecoverable divergence; the applier is halted.
  std::string sticky_error;
  std::string last_error;
};

/// The follower's replication client. Owns one background thread.
class Applier {
 public:
  /// Applies into `db`, which must have its data dir open.
  Applier(ApplierOptions options, Database* db);
  ~Applier();

  Applier(const Applier&) = delete;
  Applier& operator=(const Applier&) = delete;

  void Start();
  void Stop();

  ApplierStats GetStats() const;

 private:
  void Run();
  /// One connect+subscribe+stream attempt; returns why it ended.
  Status RunOnce();
  Status HandleRecordFrame(const std::string& payload);
  Status HandleSnapshotFrame(const std::string& payload);
  /// Divergence detection + repair on the leader's epoch announcement.
  Status HandleHelloFrame(const std::string& payload);
  void Hook(const char* point) {
    if (options_.test_hook) options_.test_hook(point);
  }
  void RecordError(const Status& status);

  const ApplierOptions options_;
  Database* const db_;
  wal::WalManager* const wal_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  mutable std::mutex stats_mu_;
  ApplierStats stats_;  // guarded by stats_mu_
  /// Records applied since the last local checkpoint.
  uint64_t since_checkpoint_ = 0;
};

}  // namespace xia::repl

#endif  // XIA_REPL_APPLIER_H_
