// WAL manager: data-dir layout, checkpointing, and ARIES-lite recovery.
//
// A data directory holds:
//
//   MANIFEST                 framed {checkpoint_lsn, file flags}; replaced
//                            atomically — its rename IS the checkpoint
//                            commit point
//   wal.log                  the append-only log (log_file.h framing)
//   snapshot-<lsn>.xia       store checkpoint (snapshot v2 format)
//   catalog-<lsn>.xia        real-index definitions at the checkpoint
//
// Checkpoint protocol (caller must serialize against mutations):
//   1. Sync the writer (everything staged becomes durable).
//   2. Write snapshot-<lsn> and catalog-<lsn> atomically (lsn = last
//      appended LSN).
//   3. Atomically replace MANIFEST pointing at them — the commit point.
//   4. Reset wal.log to empty; delete stale versioned files.
// A crash in any window recovers correctly: before step 3 the old
// manifest pairs with a log that still holds everything since the old
// checkpoint; after step 3 the new snapshot pairs with a log whose
// pre-checkpoint records are skipped by LSN filtering (idempotent
// replay); LSNs keep increasing across checkpoints, so replay of a
// stale tail can never double-apply.
//
// Recovery (Open), checkpoint install, suffix truncation and the resync
// reset all rebuild state the same way: stage a checkpoint into a private
// store/catalog, replay log records past it, then adopt — swap the
// staging store in, take over its physical indexes, run statistics once
// over the live store and publish the new LSN/epoch state. The caller's
// objects are untouched until the adopt step, so a failure leaves them
// as they were. A torn log tail is salvaged, truncated, and reported,
// never surfaced as an error; only a manifest/snapshot/catalog file that
// fails its checksum — files that are only ever replaced atomically —
// reports kDataLoss.

#ifndef XIA_WAL_MANAGER_H_
#define XIA_WAL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "fault/deadline.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/status.h"
#include "wal/writer.h"

namespace xia::wal {

/// What Recover() did, for logs/obs and the `wal status` shell command.
struct RecoveryReport {
  /// True when the data dir was missing/empty and was initialized fresh.
  bool fresh_start = false;
  /// True when a torn tail was cut off the log.
  bool salvaged = false;
  uint64_t checkpoint_lsn = 0;
  uint64_t first_replayed_lsn = 0;
  uint64_t last_replayed_lsn = 0;
  uint64_t records_replayed = 0;
  /// Records skipped as already covered by the checkpoint (lsn filter).
  uint64_t records_skipped = 0;
  /// Log bytes kept (up to the last intact frame).
  uint64_t bytes_salvaged = 0;
  /// Torn-tail bytes truncated away.
  uint64_t bytes_discarded = 0;
  double seconds = 0;

  std::string ToString() const;
};

/// Point-in-time WAL state for `wal status`.
struct WalStatus {
  std::string data_dir;
  FsyncPolicy policy = FsyncPolicy::kAlways;
  uint64_t next_lsn = 1;
  uint64_t durable_lsn = 0;
  uint64_t checkpoint_lsn = 0;
  uint64_t appended_records = 0;
  uint64_t log_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;
  /// Replication epoch this node's log belongs to (1 until a promotion
  /// ever happens) and the barrier LSN where that epoch began (0 for the
  /// initial epoch).
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;

  std::string ToString() const;
};

struct WalManagerOptions {
  WalWriterOptions writer;
};

/// Position of a log tail-reader (the replication streamer). A fresh
/// cursor (all zeros) self-initializes on the first ReadTail: epoch 0
/// never matches a live log (epochs start at 1), so the offset snaps to
/// just past the magic.
struct TailCursor {
  /// Log-file incarnation the offset refers to; every checkpoint reset
  /// (and checkpoint install) starts a new incarnation.
  uint64_t log_epoch = 0;
  /// File offset of the first unread byte within that incarnation.
  uint64_t offset = 0;
  /// Lowest LSN the reader still needs. Records below it (possible after
  /// a reset re-read) are skipped, which is what makes tailing idempotent.
  uint64_t next_lsn = 1;
};

/// One batch of committed records read past a cursor.
struct TailBatch {
  /// Encoded record payloads (EncodeRecord format, LSN ascending).
  std::vector<std::string> payloads;
  /// True when cursor->next_lsn predates the checkpoint horizon: the log
  /// no longer holds those records, so the subscriber needs a checkpoint
  /// transfer before any frames.
  bool need_checkpoint = false;
};

/// A checkpoint as raw transferable bytes (exact file contents), for
/// shipping to a joining follower.
struct CheckpointImage {
  uint64_t checkpoint_lsn = 0;
  bool has_snapshot = false;
  bool has_catalog = false;
  std::string snapshot_bytes;
  std::string catalog_bytes;
  /// Replication epoch state at the checkpoint, so a joiner installing
  /// the image adopts the leader's epoch along with its LSN space.
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;
};

/// Owns a data directory's durability: logs every committed mutation
/// (as the executor's CommitLog), checkpoints, and recovers on open.
class WalManager : public engine::CommitLog {
 public:
  explicit WalManager(std::string data_dir, WalManagerOptions options = {});
  ~WalManager() override;

  /// Opens the data dir, recovering into `store`/`catalog`/`statistics`
  /// (all rebuilt via stage-and-swap; `store` need not be empty — its
  /// contents are replaced). A missing/empty dir is initialized fresh.
  /// Replay polls `deadline` once per record.
  Result<RecoveryReport> Open(storage::DocumentStore* store,
                              storage::Catalog* catalog,
                              storage::StatisticsCatalog* statistics,
                              const fault::Deadline& deadline = {});

  /// engine::CommitLog: logs + commits one executed mutation.
  Status OnCommit(const engine::Statement& statement) override;

  /// DDL / maintenance logging (called by whoever performed the action,
  /// after it succeeded).
  Status LogCreateCollection(const std::string& collection);
  Status LogCreateIndex(const std::string& name,
                        const std::string& collection,
                        const xpath::IndexPattern& pattern);
  Status LogDropIndex(const std::string& name);
  Status LogStatsRefresh(const std::string& collection);

  /// Checkpoints `store`/`catalog` and truncates the log. The caller
  /// must hold whatever lock serializes mutations (the WAL does not know
  /// about the database mutex).
  Status Checkpoint(const storage::DocumentStore& store,
                    const storage::Catalog& catalog);

  // ---- replication support (xia::repl, DESIGN §14) ----

  /// Reads committed records past `cursor`, blocking up to `wait_s` for
  /// new commits when the cursor is caught up (an empty batch after the
  /// wait is a normal poll timeout). Detects checkpoint log resets via
  /// the cursor epoch and transparently restarts from the head of the new
  /// incarnation; when the cursor's next LSN predates the checkpoint
  /// horizon the batch reports need_checkpoint instead of frames.
  /// kDataLoss if the log is corrupt mid-file (never for a torn tail
  /// still being written). Safe to call concurrently with commits; do
  /// NOT call while holding the database lock.
  Result<TailBatch> ReadTail(TailCursor* cursor, size_t max_records,
                             double wait_s);

  /// Reads the current checkpoint files as raw bytes for transfer. The
  /// caller must hold at least the shared database lock so a concurrent
  /// checkpoint cannot replace the files mid-read.
  Result<CheckpointImage> ReadCheckpointImage() const;

  /// Installs a leader checkpoint image on a follower: validates the
  /// image into staging state first (fail-closed — a corrupt image
  /// returns kDataLoss and leaves everything untouched), persists the
  /// files, commits via the MANIFEST rename, resets the log rebased to
  /// the leader's LSN space, and swaps the staged state into
  /// `store`/`catalog`/`statistics`. Caller must hold the exclusive
  /// database lock.
  Status InstallCheckpoint(const CheckpointImage& image,
                           storage::DocumentStore* store,
                           storage::Catalog* catalog,
                           storage::StatisticsCatalog* statistics);

  /// Appends + commits one record that already carries its (leader-
  /// assigned) LSN, which must exactly continue the local log.
  Status AppendReplicated(const WalRecord& record);

  /// Checkpoint horizon (highest LSN covered by the current checkpoint).
  uint64_t checkpoint_lsn() const;

  // ---- epoch fencing (promotion / failover, DESIGN §15) ----

  /// Current replication epoch (1 until any promotion) and the LSN of
  /// the barrier record that opened it (0 for the initial epoch).
  uint64_t repl_epoch() const;
  uint64_t epoch_start_lsn() const;

  /// Promotion: appends + commits a kEpochBarrier record opening epoch
  /// `repl_epoch() + 1` and returns the barrier's LSN. Every LSN at or
  /// past the barrier belongs to the new epoch; a deposed leader must
  /// truncate from here before rejoining. Caller must hold the exclusive
  /// database lock (it changes what the log means).
  Result<uint64_t> BumpEpoch();

  /// Divergence repair for a deposed leader rejoining as a follower:
  /// drops every local record with LSN >= `barrier_lsn` (the new
  /// leader's epoch barrier) and rebuilds `store`/`catalog`/`statistics`
  /// from the local checkpoint plus the surviving log prefix
  /// (stage-and-swap; a failure leaves live state untouched). Requires
  /// checkpoint_lsn() < barrier_lsn — a checkpoint that already covers
  /// divergent records cannot be unwound; use ResetForResync then.
  /// Returns the number of records truncated away. Caller must hold the
  /// exclusive database lock.
  Result<uint64_t> TruncateSuffix(uint64_t barrier_lsn,
                                  storage::DocumentStore* store,
                                  storage::Catalog* catalog,
                                  storage::StatisticsCatalog* statistics);

  /// Full resync fallback: wipes local durable state back to an empty
  /// fresh data dir (epoch 1, LSN space restarting at 1) and swaps an
  /// empty store in, so the next subscribe-from-1 pulls a full snapshot
  /// from the leader. Caller must hold the exclusive database lock.
  Status ResetForResync(storage::DocumentStore* store,
                        storage::Catalog* catalog,
                        storage::StatisticsCatalog* statistics);

  Status Close();

  WalStatus GetStatus() const;
  const std::string& data_dir() const { return data_dir_; }

  /// Paths inside the data dir (exposed for tests/tools).
  std::string ManifestPath() const;
  std::string LogPath() const;
  std::string SnapshotPath(uint64_t lsn) const;
  std::string CatalogPath(uint64_t lsn) const;

 private:
  /// A store, catalog and statistics rebuilt off to the side: a
  /// checkpoint staged into it and log records replayed onto it
  /// (manager.cc).
  struct Staging;

  Status AppendAndCommit(WalRecord record);
  /// Bumps the commit sequence and wakes blocked ReadTail callers.
  void NotifyCommit();
  /// Removes snapshot-*/catalog-* files other than the `lsn` pair.
  void DeleteStaleVersionedFiles(uint64_t lsn);
  /// Stages the checkpoint files `manifest` references, streaming the
  /// snapshot from its file. Any problem with them is kDataLoss.
  Status StageCheckpointFiles(const Manifest& manifest,
                              Staging* staging) const;
  /// Swaps `staging` into `store`/`catalog`, rebuilds `statistics` from
  /// scratch with one pass over every live collection and publishes
  /// `state` (PublishLogReset).
  void Adopt(Staging* staging, const Manifest& state,
             storage::DocumentStore* store, storage::Catalog* catalog,
             storage::StatisticsCatalog* statistics);
  /// Publishes a new log incarnation to tail readers: the checkpoint LSN
  /// and replication epoch of `state`, a bumped log epoch and commit
  /// sequence.
  void PublishLogReset(const Manifest& state);

  const std::string data_dir_;
  const WalManagerOptions options_;
  WalWriter writer_;
  /// Atomic: bumped by leader checkpoints (exclusive lock held) and by
  /// the follower applier's InstallCheckpoint, read lock-free by
  /// GetStatus().
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<bool> open_{false};

  /// Leaf lock coordinating commit/checkpoint publication with tail
  /// readers (lock order: db lock -> writer internals -> repl_mu_; never
  /// held across I/O).
  mutable std::mutex repl_mu_;
  std::condition_variable repl_cv_;
  uint64_t checkpoint_lsn_ = 0;  // guarded by repl_mu_
  uint64_t log_epoch_ = 0;       // guarded by repl_mu_; 1-based once open
  uint64_t commit_seq_ = 0;      // guarded by repl_mu_
  uint64_t repl_epoch_ = 1;      // guarded by repl_mu_
  uint64_t epoch_start_lsn_ = 0; // guarded by repl_mu_
};

}  // namespace xia::wal

#endif  // XIA_WAL_MANAGER_H_
