#include "wal/manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "optimizer/plan.h"
#include "storage/snapshot.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "wal/log_file.h"
#include "wal/replay.h"
#include "wal/wire.h"

namespace xia::wal {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestMagic[8] = {'X', 'I', 'A', 'M', 'A', 'N', 'I', '1'};
constexpr char kCatalogMagic[8] = {'X', 'I', 'A', 'C', 'A', 'T', '0', '1'};

/// magic + one CRC frame. These files are only ever replaced atomically,
/// so unlike the log they are either absent, whole, or evidence of real
/// data loss — never legitimately torn.
std::string EncodeFramedFile(const char (&magic)[8],
                             std::string_view payload) {
  std::string out(magic, sizeof(magic));
  AppendFrame(payload, &out);
  return out;
}

/// Validates magic + frame CRC over in-memory file contents. `where`
/// names the source (a path, or "replication catalog image") for the
/// kDataLoss message.
Result<std::string> ParseFramedBytes(std::string_view data,
                                     const char (&magic)[8],
                                     const std::string& where) {
  if (data.size() < sizeof(magic) + 8 ||
      std::memcmp(data.data(), magic, sizeof(magic)) != 0) {
    return Status::DataLoss(where + " is corrupt (bad magic)");
  }
  const std::string_view frame = data.substr(sizeof(magic));
  const uint32_t len = LoadLE<uint32_t>(frame.data());
  const uint32_t crc = LoadLE<uint32_t>(frame.data() + 4);
  if (frame.size() - 8 != len) {
    return Status::DataLoss(where + " is corrupt (bad frame)");
  }
  const std::string_view payload = frame.substr(8);
  if (Crc32(payload) != crc) {
    return Status::DataLoss(where + " is corrupt (crc mismatch)");
  }
  return std::string(payload);
}

Result<std::string> ReadFramedFile(const std::string& path,
                                   const char (&magic)[8]) {
  XIA_ASSIGN_OR_RETURN(const std::string data, ReadFile(path));
  return ParseFramedBytes(data, magic, path);
}

Status WriteManifest(const std::string& path, const Manifest& m) {
  return WriteFileAtomic(path,
                         EncodeFramedFile(kManifestMagic, EncodeManifest(m)));
}

/// Wraps a payload decode error as "<where> is corrupt (<reason>)".
Status CorruptFile(const std::string& where, const Status& status) {
  return Status::DataLoss(where + " is corrupt (" + status.message() + ")");
}

Result<Manifest> ReadManifest(const std::string& path) {
  XIA_ASSIGN_OR_RETURN(const std::string payload,
                       ReadFramedFile(path, kManifestMagic));
  Result<Manifest> m = DecodeManifest(payload);
  if (!m.ok()) return CorruptFile(path, m.status());
  return m;
}

std::string EncodeCatalogFile(const storage::DocumentStore& store,
                              const storage::Catalog& catalog) {
  // Only real indexes persist; virtual ones are advisor scratch state.
  std::vector<CatalogEntry> real;
  for (const std::string& coll : store.CollectionNames()) {
    for (const storage::IndexDef* def : catalog.IndexesFor(coll)) {
      if (!def->is_virtual) {
        real.push_back(CatalogEntry{def->name, def->collection, def->pattern});
      }
    }
  }
  std::sort(real.begin(), real.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.name < b.name;
            });
  return EncodeFramedFile(kCatalogMagic, EncodeCatalog(real));
}

Status LoadCatalogPayload(const std::string& payload, const std::string& where,
                          storage::Catalog* catalog) {
  Result<std::vector<CatalogEntry>> entries = DecodeCatalog(payload);
  if (!entries.ok()) return CorruptFile(where, entries.status());
  for (const CatalogEntry& e : *entries) {
    XIA_RETURN_IF_ERROR(
        catalog->CreateIndex(e.name, e.collection, e.pattern).status());
  }
  return Status::OK();
}

/// Satellite fail-closed rule: a checkpoint file the MANIFEST references
/// (or a checkpoint image being installed) is only ever replaced
/// atomically, so *any* problem reading it — missing, truncated, corrupt
/// — is evidence of data loss, never a situation to half-recover past.
Status AsCheckpointDataLoss(const Status& status,
                            const std::string& where = "checkpoint file") {
  if (status.ok() || status.code() == StatusCode::kDataLoss) return status;
  return Status::DataLoss(where + " unusable: " + status.ToString());
}

/// Decodes a scanned log's payloads in file order, releasing each one as
/// it is decoded so the log is not held twice.
Result<std::vector<WalRecord>> DecodeLog(std::vector<std::string>* payloads) {
  std::vector<WalRecord> records;
  records.reserve(payloads->size());
  for (std::string& payload : *payloads) {
    XIA_ASSIGN_OR_RETURN(WalRecord record, DecodeRecord(payload));
    records.push_back(std::move(record));
    std::string().swap(payload);
  }
  return records;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  if (fresh_start) return "initialized fresh data dir (no prior state)";
  std::string out = StringPrintf(
      "recovered: checkpoint_lsn=%llu replayed=%llu skipped=%llu",
      static_cast<unsigned long long>(checkpoint_lsn),
      static_cast<unsigned long long>(records_replayed),
      static_cast<unsigned long long>(records_skipped));
  if (records_replayed > 0) {
    out += StringPrintf(" lsn=[%llu..%llu]",
                        static_cast<unsigned long long>(first_replayed_lsn),
                        static_cast<unsigned long long>(last_replayed_lsn));
  }
  if (salvaged) {
    out += StringPrintf(" torn_tail_discarded=%lluB",
                        static_cast<unsigned long long>(bytes_discarded));
  }
  out += StringPrintf(" in %.3fs", seconds);
  return out;
}

std::string WalStatus::ToString() const {
  return StringPrintf(
      "wal: dir=%s policy=%s next_lsn=%llu durable_lsn=%llu "
      "checkpoint_lsn=%llu appended=%llu log_bytes=%llu fsyncs=%llu "
      "checkpoints=%llu repl_epoch=%llu epoch_start_lsn=%llu",
      data_dir.c_str(), FsyncPolicyName(policy),
      static_cast<unsigned long long>(next_lsn),
      static_cast<unsigned long long>(durable_lsn),
      static_cast<unsigned long long>(checkpoint_lsn),
      static_cast<unsigned long long>(appended_records),
      static_cast<unsigned long long>(log_bytes),
      static_cast<unsigned long long>(fsyncs),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(repl_epoch),
      static_cast<unsigned long long>(epoch_start_lsn));
}

WalManager::WalManager(std::string data_dir, WalManagerOptions options)
    : data_dir_(std::move(data_dir)),
      options_(std::move(options)),
      writer_(options_.writer) {}

WalManager::~WalManager() { (void)Close(); }

std::string WalManager::ManifestPath() const { return data_dir_ + "/MANIFEST"; }
std::string WalManager::LogPath() const { return data_dir_ + "/wal.log"; }
std::string WalManager::SnapshotPath(uint64_t lsn) const {
  return data_dir_ + StringPrintf("/snapshot-%020llu.xia",
                                  static_cast<unsigned long long>(lsn));
}
std::string WalManager::CatalogPath(uint64_t lsn) const {
  return data_dir_ + StringPrintf("/catalog-%020llu.xia",
                                  static_cast<unsigned long long>(lsn));
}

/// The in-memory rebuild shared by Open, InstallCheckpoint, TruncateSuffix
/// and ResetForResync: Stage loads a checkpoint, Replay applies log records
/// past it, and WalManager::Adopt moves the result into the caller's
/// objects. Nothing live changes before Adopt, so a failure on the way
/// leaves the caller's store, catalog and statistics as they were.
struct WalManager::Staging {
  explicit Staging(const storage::CostConstants& cc)
      : catalog(&store, &statistics, cc) {}

  /// Loads a checkpoint into this (empty) staging state: the snapshot
  /// from `snapshot` and the indexes of the catalog file payload
  /// `catalog_payload`; null means the checkpoint has none. Every failure
  /// is kDataLoss naming `where`.
  Status Stage(std::istream* snapshot, const std::string* catalog_payload,
               const std::string& where) {
    if (snapshot != nullptr) {
      XIA_RETURN_IF_ERROR(AsCheckpointDataLoss(
          storage::LoadSnapshot(*snapshot, &store), where + " snapshot"));
    }
    if (catalog_payload != nullptr) {
      const std::string what = where + " catalog";
      XIA_RETURN_IF_ERROR(AsCheckpointDataLoss(
          LoadCatalogPayload(*catalog_payload, what, &catalog), what));
    }
    return Status::OK();
  }

  /// Applies `records` past `state->checkpoint_lsn`, skipping any record
  /// at or below the last LSN applied (covered by the checkpoint, or a
  /// duplicate). A barrier record opening a later epoch than `state`'s
  /// moves `state` to it, whether or not its LSN is skipped. Polls
  /// `deadline` and the wal.replay fault point once per record.
  Status Replay(const std::vector<WalRecord>& records,
                const fault::Deadline& deadline, Manifest* state,
                RecoveryReport* report) {
    uint64_t applied_lsn = state->checkpoint_lsn;
    for (const WalRecord& record : records) {
      XIA_RETURN_IF_ERROR(fault::CheckInterrupt(deadline));
      XIA_FAULT_INJECT(fault::points::kWalReplay);
      if (record.type == RecordType::kEpochBarrier &&
          record.epoch > state->repl_epoch) {
        state->repl_epoch = record.epoch;
        state->epoch_start_lsn = record.lsn;
      }
      if (record.lsn <= applied_lsn) {
        ++report->records_skipped;
        continue;
      }
      XIA_RETURN_IF_ERROR(
          ApplyRecord(record, &store, &catalog, &statistics, deadline));
      applied_lsn = record.lsn;
      if (report->records_replayed == 0) report->first_replayed_lsn = record.lsn;
      report->last_replayed_lsn = record.lsn;
      ++report->records_replayed;
    }
    return Status::OK();
  }

  storage::DocumentStore store;
  /// Written only by a replayed StatsRefresh record; Adopt computes the
  /// live statistics afresh and drops these.
  storage::StatisticsCatalog statistics;
  storage::Catalog catalog;
};

Status WalManager::StageCheckpointFiles(const Manifest& manifest,
                                        Staging* staging) const {
  std::ifstream snapshot;
  if (manifest.has_snapshot) {
    const std::string path = SnapshotPath(manifest.checkpoint_lsn);
    snapshot.open(path, std::ios::binary);
    if (!snapshot) return Status::DataLoss("cannot open checkpoint " + path);
  }
  std::string catalog_payload;
  if (manifest.has_catalog) {
    Result<std::string> payload =
        ReadFramedFile(CatalogPath(manifest.checkpoint_lsn), kCatalogMagic);
    XIA_RETURN_IF_ERROR(AsCheckpointDataLoss(payload.status()));
    catalog_payload = std::move(*payload);
  }
  return staging->Stage(manifest.has_snapshot ? &snapshot : nullptr,
                        manifest.has_catalog ? &catalog_payload : nullptr,
                        "checkpoint " + std::to_string(manifest.checkpoint_lsn));
}

void WalManager::Adopt(Staging* staging, const Manifest& state,
                       storage::DocumentStore* store,
                       storage::Catalog* catalog,
                       storage::StatisticsCatalog* statistics) {
  store->Swap(&staging->store);
  catalog->AdoptIndexesFrom(&staging->catalog);
  // The rebuild's one statistics pass, over exactly the data the advisor
  // and optimizer will price: the catalog starts empty, so a collection
  // the rebuild removed loses its statistics too.
  *statistics = storage::StatisticsCatalog();
  for (const std::string& coll : store->CollectionNames()) {
    auto c = store->GetCollection(coll);
    if (c.ok()) statistics->RunStats(**c);
  }
  PublishLogReset(state);
}

void WalManager::PublishLogReset(const Manifest& state) {
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    checkpoint_lsn_ = state.checkpoint_lsn;
    repl_epoch_ = state.repl_epoch;
    epoch_start_lsn_ = state.epoch_start_lsn;
    ++log_epoch_;
    ++commit_seq_;
  }
  repl_cv_.notify_all();
}

Result<RecoveryReport> WalManager::Open(storage::DocumentStore* store,
                                        storage::Catalog* catalog,
                                        storage::StatisticsCatalog* statistics,
                                        const fault::Deadline& deadline) {
  if (open_) return Status::FailedPrecondition("WAL manager already open");
  Stopwatch timer;
  RecoveryReport report;

  std::error_code ec;
  fs::create_directories(data_dir_, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " + data_dir_ + ": " +
                            ec.message());
  }

  if (!fs::exists(ManifestPath())) {
    // Satellite: a missing/empty data dir is a fresh database, not an
    // error.
    XIA_RETURN_IF_ERROR(InitLogFile(LogPath()));
    XIA_RETURN_IF_ERROR(WriteManifest(ManifestPath(), Manifest{}));
    XIA_RETURN_IF_ERROR(writer_.Open(LogPath(), /*next_lsn=*/1));
    {
      std::lock_guard<std::mutex> lock(repl_mu_);
      checkpoint_lsn_ = 0;
      log_epoch_ = 1;
      repl_epoch_ = 1;
      epoch_start_lsn_ = 0;
    }
    open_.store(true, std::memory_order_release);
    report.fresh_start = true;
    report.seconds = timer.ElapsedSeconds();
    return report;
  }

  XIA_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(ManifestPath()));
  report.checkpoint_lsn = manifest.checkpoint_lsn;

  Staging staging(catalog->cost_constants());
  XIA_RETURN_IF_ERROR(StageCheckpointFiles(manifest, &staging));

  // Scan the log, salvaging up to the first torn/corrupt frame, and
  // replay it. Epoch state starts at the manifest's (checkpoint-time)
  // value and advances past any barrier records in the log.
  Manifest state = manifest;
  auto scanned = ScanLogFile(LogPath());
  if (scanned.ok()) {
    report.bytes_salvaged = scanned->valid_bytes;
    report.bytes_discarded = scanned->discarded_bytes;
    report.salvaged = scanned->torn_tail;
    XIA_ASSIGN_OR_RETURN(const std::vector<WalRecord> records,
                         DecodeLog(&scanned->payloads));
    XIA_RETURN_IF_ERROR(staging.Replay(records, deadline, &state, &report));

    if (scanned->torn_tail) {
      if (scanned->valid_bytes >= sizeof(kWalMagic)) {
        XIA_RETURN_IF_ERROR(TruncateLogFile(LogPath(), scanned->valid_bytes));
      } else {
        XIA_RETURN_IF_ERROR(InitLogFile(LogPath()));
      }
    }
  } else if (scanned.status().code() == StatusCode::kNotFound) {
    // A manifest without a log means the checkpoint's log reset never
    // happened (or the log was deleted); start an empty one.
    XIA_RETURN_IF_ERROR(InitLogFile(LogPath()));
  } else {
    // Bad magic: the file exists but is not a WAL. Nothing salvageable.
    return Status::DataLoss(scanned.status().message());
  }

  // Replay skips only LSNs at or below one it applied (or the
  // checkpoint's), so the last one applied is the highest in the log.
  XIA_RETURN_IF_ERROR(writer_.Open(
      LogPath(),
      std::max(manifest.checkpoint_lsn, report.last_replayed_lsn) + 1));
  Adopt(&staging, state, store, catalog, statistics);
  open_.store(true, std::memory_order_release);

  report.seconds = timer.ElapsedSeconds();
  XIA_OBS_COUNT("xia.wal.recovery.records_replayed", report.records_replayed);
  XIA_OBS_COUNT("xia.wal.recovery.records_skipped", report.records_skipped);
  XIA_OBS_COUNT("xia.wal.recovery.bytes_salvaged", report.bytes_salvaged);
  XIA_OBS_COUNT("xia.wal.recovery.bytes_discarded", report.bytes_discarded);
  XIA_OBS_OBSERVE_LATENCY("xia.wal.recovery.seconds", report.seconds);
  return report;
}

Status WalManager::AppendAndCommit(WalRecord record) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  XIA_ASSIGN_OR_RETURN(const uint64_t lsn, writer_.Append(std::move(record)));
  XIA_RETURN_IF_ERROR(writer_.Commit(lsn));
  NotifyCommit();
  return Status::OK();
}

void WalManager::NotifyCommit() {
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    ++commit_seq_;
  }
  repl_cv_.notify_all();
}

Status WalManager::OnCommit(const engine::Statement& statement) {
  if (statement.is_insert()) {
    const engine::InsertSpec& ins = statement.insert_spec();
    return AppendAndCommit(WalRecord::Insert(ins.collection,
                                             ins.document_text));
  }
  return AppendAndCommit(WalRecord::Statement(engine::ToText(statement)));
}

Status WalManager::LogCreateCollection(const std::string& collection) {
  return AppendAndCommit(WalRecord::CreateCollection(collection));
}

Status WalManager::LogCreateIndex(const std::string& name,
                                  const std::string& collection,
                                  const xpath::IndexPattern& pattern) {
  return AppendAndCommit(WalRecord::CreateIndex(name, collection, pattern));
}

Status WalManager::LogDropIndex(const std::string& name) {
  return AppendAndCommit(WalRecord::DropIndex(name));
}

Status WalManager::LogStatsRefresh(const std::string& collection) {
  return AppendAndCommit(WalRecord::StatsRefresh(collection));
}

Status WalManager::Checkpoint(const storage::DocumentStore& store,
                              const storage::Catalog& catalog) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  XIA_RETURN_IF_ERROR(writer_.Sync());
  const uint64_t lsn = writer_.last_appended_lsn();

  std::ostringstream snapshot;
  XIA_RETURN_IF_ERROR(storage::SaveSnapshot(store, snapshot));
  XIA_RETURN_IF_ERROR(WriteFileAtomic(SnapshotPath(lsn), snapshot.str()));
  if (options_.writer.test_hook) {
    options_.writer.test_hook("checkpoint.after_snapshot");
  }

  XIA_RETURN_IF_ERROR(
      WriteFileAtomic(CatalogPath(lsn), EncodeCatalogFile(store, catalog)));

  Manifest manifest;
  manifest.checkpoint_lsn = lsn;
  manifest.has_snapshot = true;
  manifest.has_catalog = true;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    manifest.repl_epoch = repl_epoch_;
    manifest.epoch_start_lsn = epoch_start_lsn_;
  }
  // The manifest rename is the checkpoint's commit point: a crash before
  // it recovers from the previous checkpoint + full log, after it from
  // the new snapshot + LSN-filtered log.
  XIA_RETURN_IF_ERROR(WriteManifest(ManifestPath(), manifest));
  if (options_.writer.test_hook) {
    options_.writer.test_hook("checkpoint.after_manifest");
  }

  XIA_RETURN_IF_ERROR(writer_.ResetFile(LogPath()));
  if (options_.writer.test_hook) {
    options_.writer.test_hook("checkpoint.after_reset");
  }

  DeleteStaleVersionedFiles(lsn);
  PublishLogReset(manifest);
  ++checkpoints_;
  XIA_OBS_COUNT("xia.wal.checkpoints", 1);
  return Status::OK();
}

void WalManager::DeleteStaleVersionedFiles(uint64_t lsn) {
  // Stale versioned files are garbage once the manifest moved on.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(data_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool versioned = (name.rfind("snapshot-", 0) == 0 ||
                            name.rfind("catalog-", 0) == 0);
    const bool current = entry.path() == fs::path(SnapshotPath(lsn)) ||
                         entry.path() == fs::path(CatalogPath(lsn));
    if (versioned && !current) fs::remove(entry.path(), ec);
  }
}

Status WalManager::Close() {
  if (!open_.exchange(false, std::memory_order_acq_rel)) return Status::OK();
  // Wake any tail reader blocked on new commits so it observes the close.
  NotifyCommit();
  return writer_.Close();
}

uint64_t WalManager::checkpoint_lsn() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return checkpoint_lsn_;
}

uint64_t WalManager::repl_epoch() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return repl_epoch_;
}

uint64_t WalManager::epoch_start_lsn() const {
  std::lock_guard<std::mutex> lock(repl_mu_);
  return epoch_start_lsn_;
}

Result<uint64_t> WalManager::BumpEpoch() {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    new_epoch = repl_epoch_ + 1;
  }
  WalRecord barrier = WalRecord::EpochBarrier(new_epoch);
  XIA_ASSIGN_OR_RETURN(const uint64_t barrier_lsn,
                       writer_.Append(std::move(barrier)));
  XIA_RETURN_IF_ERROR(writer_.Commit(barrier_lsn));
  // The barrier is durable before anyone can observe the new epoch, so a
  // crash right after promotion still recovers into the bumped epoch.
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_epoch_ = new_epoch;
    epoch_start_lsn_ = barrier_lsn;
    ++commit_seq_;
  }
  repl_cv_.notify_all();
  XIA_OBS_COUNT("xia.wal.epoch_bumps", 1);
  return barrier_lsn;
}

Status WalManager::AppendReplicated(const WalRecord& record) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  XIA_RETURN_IF_ERROR(writer_.AppendWithLsn(record));
  XIA_RETURN_IF_ERROR(writer_.Commit(record.lsn));
  if (record.type == RecordType::kEpochBarrier) {
    // Followers adopt a promotion's epoch in-band: the barrier record is
    // part of the replicated log itself.
    std::lock_guard<std::mutex> lock(repl_mu_);
    if (record.epoch > repl_epoch_) {
      repl_epoch_ = record.epoch;
      epoch_start_lsn_ = record.lsn;
    }
  }
  NotifyCommit();
  return Status::OK();
}

Result<TailBatch> WalManager::ReadTail(TailCursor* cursor, size_t max_records,
                                       double wait_s) {
  // Bound each file read so a huge backlog streams in chunks instead of
  // one giant allocation.
  constexpr size_t kTailReadCap = 4u << 20;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(wait_s < 0 ? 0 : wait_s);
  bool force_flushed = false;
  for (;;) {
    uint64_t seq_before = 0;
    {
      std::unique_lock<std::mutex> lock(repl_mu_);
      if (!open_.load(std::memory_order_acquire)) {
        return Status::FailedPrecondition("WAL manager not open");
      }
      if (cursor->log_epoch != log_epoch_) {
        // The log was reset (checkpoint): restart at the head of the new
        // incarnation. LSN filtering below makes the re-read idempotent.
        cursor->log_epoch = log_epoch_;
        cursor->offset = sizeof(kWalMagic);
      }
      if (cursor->next_lsn <= checkpoint_lsn_) {
        // The records the subscriber needs were truncated away by a
        // checkpoint; only a checkpoint transfer can catch it up.
        TailBatch batch;
        batch.need_checkpoint = true;
        return batch;
      }
      seq_before = commit_seq_;
    }

    TailBatch batch;
    bool corrupt = false;
    std::string corrupt_reason;
    {
      std::ifstream in(LogPath(), std::ios::binary);
      if (in) {
        in.seekg(static_cast<std::streamoff>(cursor->offset));
        std::string data(kTailReadCap, '\0');
        in.read(data.data(), static_cast<std::streamsize>(data.size()));
        data.resize(static_cast<size_t>(std::max<std::streamsize>(
            in.gcount(), 0)));
        size_t pos = 0;
        while (batch.payloads.size() < max_records) {
          std::string_view payload;
          std::string reason;
          const FrameParse parsed =
              ParseNextFrame(data, &pos, &payload, &reason);
          if (parsed == FrameParse::kNeedMore) break;
          if (parsed == FrameParse::kCorrupt) {
            corrupt = true;
            corrupt_reason = reason;
            break;
          }
          uint64_t lsn = 0;
          if (!Reader(payload)(lsn)) {
            corrupt = true;
            corrupt_reason = "record payload too short for lsn";
            break;
          }
          cursor->offset += 8 + payload.size();
          if (lsn < cursor->next_lsn) continue;  // already delivered
          batch.payloads.emplace_back(payload);
          cursor->next_lsn = lsn + 1;
        }
      }
    }
    if (corrupt) {
      // Appends are sequential, so a reader can only see a prefix of the
      // writer's bytes: a complete-but-invalid frame is real corruption —
      // unless the file was swapped by a checkpoint mid-read, in which
      // case the epoch moved and the cursor just restarts.
      std::lock_guard<std::mutex> lock(repl_mu_);
      if (cursor->log_epoch != log_epoch_) continue;
      return Status::DataLoss("WAL tail corrupt at offset " +
                              std::to_string(cursor->offset) + ": " +
                              corrupt_reason);
    }
    if (!batch.payloads.empty()) return batch;

    // Committed records can still be staged in the writer (interval/off
    // fsync policies): force them into the file once before waiting.
    if (!force_flushed && writer_.last_appended_lsn() >= cursor->next_lsn) {
      force_flushed = true;
      XIA_RETURN_IF_ERROR(writer_.Sync());
      continue;
    }

    std::unique_lock<std::mutex> lock(repl_mu_);
    if (commit_seq_ != seq_before) {
      // Something committed between the file read and now; re-read
      // instead of sleeping through the missed notification.
      force_flushed = false;
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return batch;
    repl_cv_.wait_until(lock, deadline);
    force_flushed = false;
  }
}

Result<CheckpointImage> WalManager::ReadCheckpointImage() const {
  XIA_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(ManifestPath()));
  CheckpointImage image;
  image.checkpoint_lsn = manifest.checkpoint_lsn;
  image.has_snapshot = manifest.has_snapshot;
  image.has_catalog = manifest.has_catalog;
  image.repl_epoch = manifest.repl_epoch;
  image.epoch_start_lsn = manifest.epoch_start_lsn;
  if (manifest.has_snapshot) {
    auto bytes = ReadFile(SnapshotPath(manifest.checkpoint_lsn));
    if (!bytes.ok()) return AsCheckpointDataLoss(bytes.status());
    image.snapshot_bytes = std::move(*bytes);
  }
  if (manifest.has_catalog) {
    auto bytes = ReadFile(CatalogPath(manifest.checkpoint_lsn));
    if (!bytes.ok()) return AsCheckpointDataLoss(bytes.status());
    image.catalog_bytes = std::move(*bytes);
  }
  return image;
}

Status WalManager::InstallCheckpoint(const CheckpointImage& image,
                                     storage::DocumentStore* store,
                                     storage::Catalog* catalog,
                                     storage::StatisticsCatalog* statistics) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  const uint64_t lsn = image.checkpoint_lsn;

  // 1. Validate the whole image into staging state FIRST: a corrupt
  //    transfer must leave the live store, the files, and the manifest
  //    untouched (fail-closed, same stance as recovery).
  Staging staging(catalog->cost_constants());
  std::istringstream snapshot(image.snapshot_bytes);
  std::string catalog_payload;
  if (image.has_catalog) {
    XIA_ASSIGN_OR_RETURN(
        catalog_payload,
        ParseFramedBytes(image.catalog_bytes, kCatalogMagic,
                         "replication catalog image"));
  }
  XIA_RETURN_IF_ERROR(
      staging.Stage(image.has_snapshot ? &snapshot : nullptr,
                    image.has_catalog ? &catalog_payload : nullptr,
                    "replication checkpoint image"));

  // 2. Persist the image files (atomic, but not yet referenced).
  if (image.has_snapshot) {
    XIA_RETURN_IF_ERROR(WriteFileAtomic(SnapshotPath(lsn),
                                        image.snapshot_bytes));
  }
  if (image.has_catalog) {
    XIA_RETURN_IF_ERROR(WriteFileAtomic(CatalogPath(lsn),
                                        image.catalog_bytes));
  }
  if (options_.writer.test_hook) {
    options_.writer.test_hook("repl.snapshot.mid_install");
  }

  // 3. The manifest rename is the commit point: a crash before it rejoins
  //    from the old state, after it from the installed checkpoint.
  Manifest manifest;
  manifest.checkpoint_lsn = lsn;
  manifest.has_snapshot = image.has_snapshot;
  manifest.has_catalog = image.has_catalog;
  manifest.repl_epoch = image.repl_epoch == 0 ? 1 : image.repl_epoch;
  manifest.epoch_start_lsn = image.epoch_start_lsn;
  XIA_RETURN_IF_ERROR(WriteManifest(ManifestPath(), manifest));

  // 4. Reset the log rebased into the leader's LSN space. Anything the
  //    old log held is <= the image LSN and covered by the snapshot.
  XIA_RETURN_IF_ERROR(writer_.Sync());
  XIA_RETURN_IF_ERROR(writer_.ResetFile(LogPath(), /*next_lsn=*/lsn + 1));
  DeleteStaleVersionedFiles(lsn);

  // 5. Adopt the staged state.
  Adopt(&staging, manifest, store, catalog, statistics);
  ++checkpoints_;
  XIA_OBS_COUNT("xia.wal.checkpoint_installs", 1);
  return Status::OK();
}

Result<uint64_t> WalManager::TruncateSuffix(
    uint64_t barrier_lsn, storage::DocumentStore* store,
    storage::Catalog* catalog, storage::StatisticsCatalog* statistics) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  if (barrier_lsn == 0) {
    return Status::InvalidArgument("barrier LSN must be positive");
  }
  XIA_RETURN_IF_ERROR(writer_.Sync());
  XIA_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(ManifestPath()));
  if (manifest.checkpoint_lsn >= barrier_lsn) {
    return Status::FailedPrecondition(StringPrintf(
        "local checkpoint %llu already covers LSNs at or past the epoch "
        "barrier %llu; divergence cannot be unwound in place",
        static_cast<unsigned long long>(manifest.checkpoint_lsn),
        static_cast<unsigned long long>(barrier_lsn)));
  }

  // Partition the log into the surviving prefix and the divergent
  // suffix. The log holds whole records (Sync above), so any frame that
  // fails to decode here is real corruption, not a torn tail.
  std::vector<WalRecord> keep;
  auto scanned = ScanLogFile(LogPath());
  if (scanned.ok()) {
    XIA_ASSIGN_OR_RETURN(keep, DecodeLog(&scanned->payloads));
  } else if (scanned.status().code() != StatusCode::kNotFound) {
    return Status::DataLoss(scanned.status().message());
  }
  const auto divergent =
      std::remove_if(keep.begin(), keep.end(), [&](const WalRecord& r) {
        return r.lsn >= barrier_lsn;
      });
  const auto truncated = static_cast<uint64_t>(keep.end() - divergent);
  keep.erase(divergent, keep.end());

  // Rebuild checkpoint state + surviving prefix off to the side first,
  // so a corrupt checkpoint file leaves the live store and the log
  // untouched.
  Staging staging(catalog->cost_constants());
  XIA_RETURN_IF_ERROR(StageCheckpointFiles(manifest, &staging));
  Manifest state = manifest;
  RecoveryReport replayed;
  XIA_RETURN_IF_ERROR(staging.Replay(keep, {}, &state, &replayed));

  // Rewrite the log as exactly the records replay applied. A crash
  // mid-rewrite is safe: recovery sees checkpoint + a shorter prefix,
  // still prefix-consistent, and the follower re-fetches the rest from
  // the leader.
  XIA_RETURN_IF_ERROR(
      writer_.ResetFile(LogPath(), manifest.checkpoint_lsn + 1));
  uint64_t last_kept = manifest.checkpoint_lsn;
  for (const WalRecord& record : keep) {
    if (record.lsn <= last_kept) continue;
    XIA_RETURN_IF_ERROR(writer_.AppendWithLsn(record));
    last_kept = record.lsn;
  }
  if (last_kept > manifest.checkpoint_lsn) {
    XIA_RETURN_IF_ERROR(writer_.Commit(last_kept));
  }
  XIA_RETURN_IF_ERROR(writer_.Sync());

  Adopt(&staging, state, store, catalog, statistics);
  XIA_OBS_COUNT("xia.wal.suffix_truncations", 1);
  XIA_OBS_COUNT("xia.wal.records_truncated", truncated);
  return truncated;
}

Status WalManager::ResetForResync(storage::DocumentStore* store,
                                  storage::Catalog* catalog,
                                  storage::StatisticsCatalog* statistics) {
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("WAL manager not open");
  }
  XIA_RETURN_IF_ERROR(writer_.Sync());
  // Back to the fresh-data-dir state: empty manifest (the rename is the
  // commit point — before it the old state still recovers whole), empty
  // log restarting the LSN space at 1.
  XIA_RETURN_IF_ERROR(WriteManifest(ManifestPath(), Manifest{}));
  XIA_RETURN_IF_ERROR(writer_.ResetFile(LogPath(), /*next_lsn=*/1));
  DeleteStaleVersionedFiles(0);

  Staging empty(catalog->cost_constants());
  Adopt(&empty, Manifest{}, store, catalog, statistics);
  XIA_OBS_COUNT("xia.wal.resync_resets", 1);
  return Status::OK();
}

WalStatus WalManager::GetStatus() const {
  WalStatus status;
  status.data_dir = data_dir_;
  status.policy = options_.writer.policy;
  status.next_lsn = writer_.next_lsn();
  status.durable_lsn = writer_.durable_lsn();
  status.checkpoint_lsn = checkpoint_lsn();
  status.appended_records = writer_.appended_records();
  status.log_bytes = writer_.file_bytes();
  status.fsyncs = writer_.fsyncs();
  status.checkpoints = checkpoints_;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    status.repl_epoch = repl_epoch_;
    status.epoch_start_lsn = epoch_start_lsn_;
  }
  return status;
}

}  // namespace xia::wal
