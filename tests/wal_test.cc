// xia::wal unit tests: record codec round-trips, torn-frame salvage
// (truncation at every byte offset, byte flips), duplicate-LSN replay
// idempotence, fsync policies, checkpoint round-trips and crash windows,
// fresh-dir initialization, suffix truncation and resync resets against
// from-scratch replays, statistics after every rebuild, commit ordering
// w.r.t. the capture sink, and Deadline-bounded recovery of a
// 10k-mutation log.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "codec_fixtures.h"
#include "scratch_dir.h"
#include "engine/executor.h"
#include "engine/query_parser.h"
#include "fault/deadline.h"
#include "fault/fault.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "util/crc32.h"
#include "wal/log_file.h"
#include "wal/manager.h"
#include "wal/record.h"
#include "wal/wire.h"
#include "wal/writer.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia::wal {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

using testutil::ScratchDir;

/// Store + catalog + statistics bundle used as a recovery target.
struct Db {
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  storage::Catalog catalog{&store, &stats};
};

// ------------------------------------------------------------- records

TEST(WalRecordTest, RoundTripsEveryType) {
  const xpath::IndexPattern pattern{*xpath::ParsePattern("/a//b"),
                                    xpath::ValueType::kNumeric};
  std::vector<WalRecord> records = {
      WalRecord::CreateCollection("C"),
      WalRecord::Insert("C", "<a><b>1</b></a>"),
      WalRecord::Statement("delete from C where /a/b = 1"),
      WalRecord::CreateIndex("idx", "C", pattern),
      WalRecord::DropIndex("idx"),
      WalRecord::StatsRefresh("C"),
  };
  uint64_t lsn = 1;
  for (WalRecord& r : records) {
    r.lsn = lsn++;
    auto decoded = DecodeRecord(EncodeRecord(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->lsn, r.lsn);
    EXPECT_EQ(decoded->type, r.type);
    EXPECT_EQ(decoded->collection, r.collection);
    EXPECT_EQ(decoded->text, r.text);
    EXPECT_EQ(decoded->name, r.name);
    EXPECT_EQ(decoded->pattern_path.ToString(), r.pattern_path.ToString());
    EXPECT_EQ(decoded->value_type, r.value_type);
    EXPECT_EQ(decoded->structural, r.structural);
  }
}

TEST(WalRecordTest, MalformedPayloadsAreParseErrors) {
  // Truncated, unknown type, and trailing-garbage payloads must all be
  // kParseError: they passed a CRC, so this is corruption framing cannot
  // explain.
  EXPECT_EQ(DecodeRecord("").status().code(), StatusCode::kParseError);
  std::string unknown;
  PutU64(&unknown, 1);
  PutU8(&unknown, 99);
  EXPECT_EQ(DecodeRecord(unknown).status().code(), StatusCode::kParseError);
  std::string trailing = EncodeRecord(WalRecord::DropIndex("x"));
  trailing.push_back('!');
  EXPECT_EQ(DecodeRecord(trailing).status().code(), StatusCode::kParseError);
}

// Every record type and both checkpoint payloads encode to exactly the
// bytes the log and checkpoint files have always held, and decode back
// to an equal encoding.
TEST(WalRecordTest, GoldenRecordBytes) {
  using codec_fixtures::Codec;
  using codec_fixtures::ToHex;
  codec_fixtures::ForEachWalFixture(
      [](const char* name, const auto& m, const char* hex) {
        using T = std::decay_t<decltype(m)>;
        SCOPED_TRACE(name);
        const std::string bytes = Codec<T>::Encode(m);
        EXPECT_EQ(ToHex(bytes), hex);
        const auto decoded = Codec<T>::Decode(bytes);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(Codec<T>::Encode(*decoded), bytes);
      });
}

// A count that cannot fit in the bytes left (a record's path steps, a
// catalog's entries) is rejected before anything is allocated.
TEST(WalRecordTest, ImpossibleCountsAreRejected) {
  std::string record =
      EncodeRecord(WalRecord::CreateIndex("", "", xpath::IndexPattern{}));
  ASSERT_EQ(record.size(), 23u);
  record.replace(17, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeRecord(record).status().code(), StatusCode::kParseError);

  std::string catalog = EncodeCatalog({CatalogEntry{"i", "C", {}}});
  catalog.replace(0, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeCatalog(catalog).status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------- torn frames

std::string BuildLog(const std::vector<std::string>& payloads) {
  std::string data(kWalMagic, sizeof(kWalMagic));
  for (const std::string& p : payloads) AppendFrame(p, &data);
  return data;
}

TEST(WalLogFileTest, TruncationAtEveryOffsetSalvagesThePrefix) {
  const std::string dir = ScratchDir("truncate");
  const std::string path = dir + "/wal.log";
  const std::vector<std::string> payloads = {"alpha", "bb", "c3",
                                             std::string(100, 'z')};
  const std::string full = BuildLog(payloads);

  // Frame end offsets, so the expected salvage count is a table lookup.
  std::vector<size_t> frame_ends;
  size_t pos = sizeof(kWalMagic);
  for (const std::string& p : payloads) {
    pos += 8 + p.size();
    frame_ends.push_back(pos);
  }

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteFile(path, full.substr(0, cut));
    auto scanned = ScanLogFile(path);
    if (cut < sizeof(kWalMagic)) {
      // Even a torn magic is salvage (empty), not an error.
      ASSERT_TRUE(scanned.ok()) << "cut=" << cut << " " << scanned.status();
      EXPECT_TRUE(scanned->torn_tail);
      EXPECT_EQ(scanned->payloads.size(), 0u);
      continue;
    }
    ASSERT_TRUE(scanned.ok()) << "cut=" << cut << " " << scanned.status();
    size_t expected = 0;
    while (expected < frame_ends.size() && frame_ends[expected] <= cut) {
      ++expected;
    }
    EXPECT_EQ(scanned->payloads.size(), expected) << "cut=" << cut;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(scanned->payloads[i], payloads[i]);
    }
    const bool torn = cut != full.size() && cut != frame_ends.back();
    // A cut exactly on a frame boundary mid-file leaves a valid shorter
    // log (the remaining frames simply do not exist yet).
    const size_t boundary =
        expected > 0 ? frame_ends[expected - 1] : sizeof(kWalMagic);
    EXPECT_EQ(scanned->torn_tail, cut != boundary) << "cut=" << cut;
    EXPECT_EQ(scanned->valid_bytes, boundary) << "cut=" << cut;
    EXPECT_EQ(scanned->discarded_bytes, cut - boundary) << "cut=" << cut;
    (void)torn;
  }
}

TEST(WalLogFileTest, ByteFlipsNeverFlipBits) {
  const std::string dir = ScratchDir("flip");
  const std::string path = dir + "/wal.log";
  const std::vector<std::string> payloads = {"first-frame", "second-frame",
                                             "third-frame"};
  const std::string full = BuildLog(payloads);

  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    WriteFile(path, bad);
    auto scanned = ScanLogFile(path);
    if (i < sizeof(kWalMagic)) {
      // A flipped magic means "not a WAL file" — a hard error.
      EXPECT_EQ(scanned.status().code(), StatusCode::kParseError)
          << "flip at " << i;
      continue;
    }
    ASSERT_TRUE(scanned.ok()) << "flip at " << i << " " << scanned.status();
    // The flip lands in some frame; every earlier frame must survive
    // intact and everything from the damaged frame on is discarded.
    EXPECT_LT(scanned->payloads.size(), payloads.size()) << "flip at " << i;
    for (size_t k = 0; k < scanned->payloads.size(); ++k) {
      EXPECT_EQ(scanned->payloads[k], payloads[k]) << "flip at " << i;
    }
    EXPECT_TRUE(scanned->torn_tail) << "flip at " << i;
  }
}

TEST(WalLogFileTest, OversizedLengthFieldIsTailCorruptionNotAnAllocation) {
  const std::string dir = ScratchDir("oversize");
  const std::string path = dir + "/wal.log";
  std::string data(kWalMagic, sizeof(kWalMagic));
  PutU32(&data, kMaxFrameBytes + 1);
  PutU32(&data, 0);
  data += "whatever";
  WriteFile(path, data);
  auto scanned = ScanLogFile(path);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(scanned->payloads.size(), 0u);
  EXPECT_TRUE(scanned->torn_tail);
}

// ------------------------------------------------------------- writer

TEST(WalWriterTest, AppendCommitRoundTripsUnderEveryPolicy) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kInterval, FsyncPolicy::kOff}) {
    SCOPED_TRACE(FsyncPolicyName(policy));
    const std::string dir =
        ScratchDir(std::string("writer_") + FsyncPolicyName(policy));
    const std::string path = dir + "/wal.log";
    ASSERT_TRUE(InitLogFile(path).ok());
    WalWriterOptions options;
    options.policy = policy;
    WalWriter writer(options);
    ASSERT_TRUE(writer.Open(path, 1).ok());
    for (int i = 0; i < 10; ++i) {
      auto lsn = writer.Append(
          WalRecord::CreateCollection("C" + std::to_string(i)));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
      ASSERT_TRUE(writer.Commit(*lsn).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());

    auto scanned = ScanLogFile(path);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->payloads.size(), 10u);
    EXPECT_FALSE(scanned->torn_tail);
  }
}

TEST(WalWriterTest, ParsePolicyNames) {
  EXPECT_EQ(*ParseFsyncPolicy("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(*ParseFsyncPolicy("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(*ParseFsyncPolicy("off"), FsyncPolicy::kOff);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
}

// ------------------------------------------------------------ manager

Status RunInsert(WalManager* manager, Db* db, const std::string& coll,
                 const std::string& doc) {
  engine::Executor executor(&db->store, &db->catalog);
  executor.set_commit_log(manager);
  XIA_ASSIGN_OR_RETURN(engine::Statement st,
                       engine::ParseStatement("insert into " + coll + " " +
                                              doc));
  return executor.Execute(st, optimizer::Plan()).status();
}

/// Serialized store contents: collection -> serialized live docs.
std::string Digest(storage::DocumentStore* store) {
  std::string out;
  for (const std::string& name : store->CollectionNames()) {
    auto coll = store->GetCollection(name);
    if (!coll.ok()) continue;
    out += name + "{";
    (*coll)->ForEach([&](xml::DocId id, const xml::Document& doc) {
      out += std::to_string(id) + ":" + xml::Serialize(doc) + ";";
    });
    out += "}";
  }
  return out;
}

TEST(WalManagerTest, FreshDirInitializesEmptyDatabase) {
  const std::string dir = ScratchDir("fresh");
  WalManager manager(dir + "/data");  // does not exist yet
  Db db;
  auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->fresh_start);
  EXPECT_TRUE(db.store.CollectionNames().empty());
  EXPECT_TRUE(fs::exists(dir + "/data/MANIFEST"));
  EXPECT_TRUE(fs::exists(dir + "/data/wal.log"));
}

TEST(WalManagerTest, CommittedMutationsSurviveReopen) {
  const std::string dir = ScratchDir("reopen");
  std::string digest_before;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>2</b></a>").ok());
    const xpath::IndexPattern pattern{*xpath::ParsePattern("/a/b"),
                                      xpath::ValueType::kNumeric};
    ASSERT_TRUE(db.catalog.CreateIndex("ib", "C", pattern).ok());
    ASSERT_TRUE(manager.LogCreateIndex("ib", "C", pattern).ok());
    digest_before = Digest(&db.store);
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->fresh_start);
    EXPECT_EQ(report->records_replayed, 4u);
    EXPECT_EQ(Digest(&db.store), digest_before);
    // The physical index was rebuilt and is queryable.
    auto def = db.catalog.Get("ib");
    ASSERT_TRUE(def.ok());
    EXPECT_FALSE((*def)->is_virtual);
    EXPECT_EQ((*def)->stats.entry_count, 2u);
  }
}

TEST(WalManagerTest, DeleteAndUpdateReplayDeterministically) {
  const std::string dir = ScratchDir("dml");
  std::string digest_before;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(RunInsert(&manager, &db, "C",
                            "<a><b>" + std::to_string(i % 4) + "</b></a>")
                      .ok());
    }
    engine::Executor executor(&db.store, &db.catalog);
    executor.set_commit_log(&manager);
    auto del = engine::ParseStatement("delete from C where /a[b = 1]");
    ASSERT_TRUE(del.ok());
    ASSERT_TRUE(executor.Execute(*del, optimizer::Plan()).ok());
    auto upd =
        engine::ParseStatement("update C set /a/b = 9 where /a[b = 2]");
    ASSERT_TRUE(upd.ok());
    ASSERT_TRUE(executor.Execute(*upd, optimizer::Plan()).ok());
    digest_before = Digest(&db.store);
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Digest(&db.store), digest_before);
  }
}

// A numeric update stores every digit its value needs, so the value reads
// back through a query, and replaying the logged statement rebuilds the
// same store.
TEST(WalManagerTest, NumericUpdateKeepsEveryDigitThroughQueryAndReplay) {
  const std::string dir = ScratchDir("numeric_update");
  const std::string query =
      "for $s in collection('SDOC')/Security where $s/Price = 12345.67 "
      "return $s/Symbol";
  auto count = [&](Db* db) -> uint64_t {
    engine::Executor executor(&db->store, &db->catalog);
    auto st = engine::ParseStatement(query);
    EXPECT_TRUE(st.ok()) << st.status();
    auto result = executor.Execute(*st, optimizer::Plan());
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->result_count : 0;
  };
  std::string digest_before;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("SDOC").ok());
    ASSERT_TRUE(manager.LogCreateCollection("SDOC").ok());
    for (const char* sym : {"A", "B"}) {
      ASSERT_TRUE(RunInsert(&manager, &db, "SDOC",
                            std::string("<Security><Symbol>") + sym +
                                "</Symbol><Price>1</Price></Security>")
                      .ok());
    }
    engine::Executor executor(&db.store, &db.catalog);
    executor.set_commit_log(&manager);
    auto upd = engine::ParseStatement(
        "update SDOC set /Security/Price = 12345.67 "
        "where /Security[Symbol = \"A\"]");
    ASSERT_TRUE(upd.ok()) << upd.status();
    auto result = executor.Execute(*upd, optimizer::Plan());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->result_count, 1u);
    EXPECT_EQ(count(&db), 1u);
    digest_before = Digest(&db.store);
    EXPECT_NE(digest_before.find("<Price>12345.67</Price>"),
              std::string::npos)
        << digest_before;
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Digest(&db.store), digest_before);
    EXPECT_EQ(count(&db), 1u);
  }
}

TEST(WalManagerTest, DuplicateLsnReplayIsIdempotent) {
  const std::string dir = ScratchDir("duplsn");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  // Duplicate both frames at the end of the log, as if a retried append
  // had double-written them.
  const std::string path = dir + "/wal.log";
  const std::string data = ReadFile(path);
  WriteFile(path, data + data.substr(sizeof(kWalMagic)));
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->records_replayed, 2u);
    EXPECT_EQ(report->records_skipped, 2u);
    auto coll = db.store.GetCollection("C");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ((*coll)->live_count(), 1u);
  }
}

TEST(WalManagerTest, CheckpointTruncatesAndReopenSkipsReplay) {
  const std::string dir = ScratchDir("ckpt");
  std::string digest_before;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(RunInsert(&manager, &db, "C",
                            "<a><b>" + std::to_string(i) + "</b></a>")
                      .ok());
    }
    ASSERT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
    // Two more mutations after the checkpoint form the replay tail.
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>50</b></a>").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>51</b></a>").ok());
    digest_before = Digest(&db.store);
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->checkpoint_lsn, 6u);
    EXPECT_EQ(report->records_replayed, 2u);
    EXPECT_EQ(Digest(&db.store), digest_before);
  }
}

TEST(WalManagerTest, StaleLogTailAfterManifestSwitchIsSkipped) {
  // Simulates a crash between the manifest write and the log reset: the
  // new manifest points at the new snapshot while the log still holds
  // every pre-checkpoint record. LSN filtering must skip them all.
  const std::string dir = ScratchDir("stale_tail");
  std::string digest_before;
  std::string log_before_reset;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
    log_before_reset = ReadFile(dir + "/wal.log");
    ASSERT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
    digest_before = Digest(&db.store);
    ASSERT_TRUE(manager.Close().ok());
  }
  // Undo the reset: put the full pre-checkpoint log back.
  WriteFile(dir + "/wal.log", log_before_reset);
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->records_replayed, 0u);
    EXPECT_EQ(report->records_skipped, 2u);
    EXPECT_EQ(Digest(&db.store), digest_before);
  }
}

TEST(WalManagerTest, TornTailIsSalvagedAndTruncated) {
  const std::string dir = ScratchDir("torn");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>2</b></a>").ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  const std::string path = dir + "/wal.log";
  const std::string data = ReadFile(path);
  WriteFile(path, data.substr(0, data.size() - 5));
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->salvaged);
    EXPECT_EQ(report->records_replayed, 2u);  // last insert lost
    auto coll = db.store.GetCollection("C");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ((*coll)->live_count(), 1u);
    // The tail was truncated, so the next open is clean.
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->salvaged);
  }
}

TEST(WalManagerTest, CorruptManifestIsDataLoss) {
  const std::string dir = ScratchDir("badmanifest");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  std::string manifest = ReadFile(dir + "/MANIFEST");
  manifest.back() = static_cast<char>(manifest.back() ^ 0x01);
  WriteFile(dir + "/MANIFEST", manifest);
  WalManager manager(dir);
  Db db;
  auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

// ----------------------------------- fail-closed checkpoint recovery

/// Builds a dir whose MANIFEST references a real checkpoint (snapshot +
/// catalog files) plus a couple of post-checkpoint log records, and
/// returns the checkpoint LSN.
uint64_t BuildCheckpointedDir(const std::string& dir) {
  WalManager manager(dir);
  Db db;
  EXPECT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  EXPECT_TRUE(db.store.CreateCollection("C").ok());
  EXPECT_TRUE(manager.LogCreateCollection("C").ok());
  EXPECT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
  EXPECT_TRUE(RunInsert(&manager, &db, "C", "<a><b>2</b></a>").ok());
  EXPECT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
  EXPECT_TRUE(RunInsert(&manager, &db, "C", "<a><b>3</b></a>").ok());
  const uint64_t checkpoint_lsn = manager.checkpoint_lsn();
  EXPECT_TRUE(manager.Close().ok());
  return checkpoint_lsn;
}

TEST(WalManagerTest, ManifestReferencingMissingSnapshotIsDataLoss) {
  const std::string dir = ScratchDir("lost_snapshot");
  const uint64_t checkpoint_lsn = BuildCheckpointedDir(dir);

  WalManager manager(dir);
  fs::remove(manager.SnapshotPath(checkpoint_lsn));
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_FALSE(report.ok());
  // Fail-closed: a referenced-but-missing checkpoint file is data loss
  // (exit 22 for CLI callers), never a silent fresh start — and the
  // stage-and-swap recovery must leave the target store untouched.
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(StatusExitCode(report.status()), 22);
  EXPECT_TRUE(db.store.CollectionNames().empty());
}

TEST(WalManagerTest, TruncatedSnapshotFileIsDataLoss) {
  const std::string dir = ScratchDir("torn_snapshot");
  const uint64_t checkpoint_lsn = BuildCheckpointedDir(dir);

  WalManager manager(dir);
  const std::string path = manager.SnapshotPath(checkpoint_lsn);
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 2u);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(db.store.CollectionNames().empty());
}

// ------------------------------------------- replication primitives

TEST(WalManagerTest, ReadTailStreamsCommittedRecordsInOrder) {
  const std::string dir = ScratchDir("tail_order");
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RunInsert(&manager, &db, "C",
                          "<a><b>" + std::to_string(i) + "</b></a>")
                    .ok());
  }

  TailCursor cursor;  // zero-initialized: self-snaps to the log head
  auto batch = manager.ReadTail(&cursor, 100, 0);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_FALSE(batch->need_checkpoint);
  ASSERT_EQ(batch->payloads.size(), 4u);
  uint64_t expected_lsn = 1;
  for (const std::string& payload : batch->payloads) {
    const auto record = DecodeRecord(payload);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->lsn, expected_lsn++);
  }

  // Caught up: a zero-wait poll returns an empty batch, not an error.
  auto empty = manager.ReadTail(&cursor, 100, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->payloads.empty());

  // New commits appear on the next read, resuming from the cursor.
  ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>9</b></a>").ok());
  auto more = manager.ReadTail(&cursor, 100, 0);
  ASSERT_TRUE(more.ok());
  ASSERT_EQ(more->payloads.size(), 1u);
  EXPECT_EQ(DecodeRecord(more->payloads[0])->lsn, 5u);
}

TEST(WalManagerTest, ReadTailHonorsMaxRecords) {
  const std::string dir = ScratchDir("tail_max");
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
  }
  TailCursor cursor;
  size_t total = 0;
  for (int reads = 0; reads < 10 && total < 6; ++reads) {
    auto batch = manager.ReadTail(&cursor, 2, 0);
    ASSERT_TRUE(batch.ok());
    EXPECT_LE(batch->payloads.size(), 2u);
    total += batch->payloads.size();
  }
  EXPECT_EQ(total, 6u);
}

TEST(WalManagerTest, ReadTailReportsCheckpointHorizon) {
  const std::string dir = ScratchDir("tail_horizon");
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());
  ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
  ASSERT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
  ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>2</b></a>").ok());

  // A reader starting before the horizon needs a checkpoint, not frames:
  // the checkpoint truncated those records out of the log.
  TailCursor stale;
  auto batch = manager.ReadTail(&stale, 100, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->need_checkpoint);
  EXPECT_TRUE(batch->payloads.empty());

  // A reader resuming past the horizon streams the post-checkpoint tail.
  TailCursor fresh;
  fresh.next_lsn = manager.checkpoint_lsn() + 1;
  auto tail = manager.ReadTail(&fresh, 100, 0);
  ASSERT_TRUE(tail.ok());
  EXPECT_FALSE(tail->need_checkpoint);
  ASSERT_EQ(tail->payloads.size(), 1u);
  EXPECT_EQ(DecodeRecord(tail->payloads[0])->lsn, 3u);
}

TEST(WalManagerTest, ReadTailBlocksUntilCommitArrives) {
  const std::string dir = ScratchDir("tail_block");
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());

  TailCursor cursor;
  ASSERT_EQ(manager.ReadTail(&cursor, 100, 0)->payloads.size(), 1u);

  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
  });
  // Blocks on the commit condition variable, not a poll timeout: the
  // 5-second budget is only a test safety net.
  auto batch = manager.ReadTail(&cursor, 100, 5.0);
  committer.join();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->payloads.size(), 1u);
  EXPECT_EQ(DecodeRecord(batch->payloads[0])->lsn, 2u);
}

TEST(WalManagerTest, CheckpointImageInstallRoundtrip) {
  const std::string leader_dir = ScratchDir("img_leader");
  const std::string follower_dir = ScratchDir("img_follower");

  WalManager leader(leader_dir);
  Db leader_db;
  ASSERT_TRUE(
      leader.Open(&leader_db.store, &leader_db.catalog, &leader_db.stats)
          .ok());
  ASSERT_TRUE(leader_db.store.CreateCollection("C").ok());
  ASSERT_TRUE(leader.LogCreateCollection("C").ok());
  ASSERT_TRUE(RunInsert(&leader, &leader_db, "C", "<a><b>1</b></a>").ok());
  ASSERT_TRUE(RunInsert(&leader, &leader_db, "C", "<a><b>2</b></a>").ok());
  const xpath::IndexPattern pattern{*xpath::ParsePattern("/a/b"),
                                    xpath::ValueType::kNumeric};
  ASSERT_TRUE(leader_db.catalog.CreateIndex("ib", "C", pattern).ok());
  ASSERT_TRUE(leader.LogCreateIndex("ib", "C", pattern).ok());
  ASSERT_TRUE(leader.Checkpoint(leader_db.store, leader_db.catalog).ok());

  const auto image = leader.ReadCheckpointImage();
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->checkpoint_lsn, leader.checkpoint_lsn());
  EXPECT_TRUE(image->has_snapshot);

  WalManager follower(follower_dir);
  Db follower_db;
  ASSERT_TRUE(follower
                  .Open(&follower_db.store, &follower_db.catalog,
                        &follower_db.stats)
                  .ok());
  ASSERT_TRUE(follower
                  .InstallCheckpoint(*image, &follower_db.store,
                                     &follower_db.catalog, &follower_db.stats)
                  .ok());
  EXPECT_EQ(Digest(&follower_db.store), Digest(&leader_db.store));
  // The catalog came along (rebuilt physical index included).
  const auto def = follower_db.catalog.Get("ib");
  ASSERT_TRUE(def.ok());
  EXPECT_FALSE((*def)->is_virtual);
  // The follower's log is rebased into the leader's LSN space.
  EXPECT_EQ(follower.GetStatus().next_lsn, image->checkpoint_lsn + 1);
  EXPECT_EQ(follower.checkpoint_lsn(), image->checkpoint_lsn);
  ASSERT_TRUE(follower.Close().ok());

  // The installed checkpoint is durable: a plain reopen recovers it.
  WalManager reopened(follower_dir);
  Db reopened_db;
  const auto report = reopened.Open(&reopened_db.store, &reopened_db.catalog,
                                    &reopened_db.stats);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->checkpoint_lsn, image->checkpoint_lsn);
  EXPECT_EQ(Digest(&reopened_db.store), Digest(&leader_db.store));
}

TEST(WalManagerTest, CorruptCheckpointImageIsRejectedUntouched) {
  const std::string leader_dir = ScratchDir("badimg_leader");
  const std::string follower_dir = ScratchDir("badimg_follower");
  BuildCheckpointedDir(leader_dir);
  WalManager leader(leader_dir);
  Db leader_db;
  ASSERT_TRUE(
      leader.Open(&leader_db.store, &leader_db.catalog, &leader_db.stats)
          .ok());
  auto image = leader.ReadCheckpointImage();
  ASSERT_TRUE(image.ok());
  // A flipped byte mid-snapshot models corruption in transfer that still
  // passed the net frame CRC (e.g. flipped before framing).
  image->snapshot_bytes[image->snapshot_bytes.size() / 2] ^= 0x20;

  WalManager follower(follower_dir);
  Db follower_db;
  ASSERT_TRUE(follower
                  .Open(&follower_db.store, &follower_db.catalog,
                        &follower_db.stats)
                  .ok());
  const Status installed = follower.InstallCheckpoint(
      *image, &follower_db.store, &follower_db.catalog, &follower_db.stats);
  EXPECT_EQ(installed.code(), StatusCode::kDataLoss);
  // Fail-closed: nothing installed, nothing referenced, LSN space
  // unchanged.
  EXPECT_TRUE(follower_db.store.CollectionNames().empty());
  EXPECT_EQ(follower.checkpoint_lsn(), 0u);
  EXPECT_EQ(follower.GetStatus().next_lsn, 1u);
}

// ------------------- rebuilds: truncation, resync, adopted statistics

/// Expects `live` to hold, for every collection of `store`, exactly what
/// a fresh RunStats over that collection computes.
void ExpectFreshStatistics(const storage::StatisticsCatalog& live,
                           storage::DocumentStore* store) {
  for (const std::string& name : store->CollectionNames()) {
    SCOPED_TRACE(name);
    auto coll = store->GetCollection(name);
    ASSERT_TRUE(coll.ok());
    storage::StatisticsCatalog fresh_catalog;
    fresh_catalog.RunStats(**coll);
    const auto fresh = fresh_catalog.Get(name);
    const auto got = live.Get(name);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ((*got)->document_count(), (*fresh)->document_count());
    EXPECT_EQ((*got)->node_count(), (*fresh)->node_count());
    EXPECT_EQ((*got)->data_pages(), (*fresh)->data_pages());
    ASSERT_EQ((*got)->paths().size(), (*fresh)->paths().size());
    for (const auto& [path, want] : (*fresh)->paths()) {
      SCOPED_TRACE(path);
      const auto it = (*got)->paths().find(path);
      ASSERT_NE(it, (*got)->paths().end());
      const storage::PathStats& have = it->second;
      EXPECT_EQ(have.labels, want.labels);
      EXPECT_EQ(have.count, want.count);
      EXPECT_EQ(have.valued_count, want.valued_count);
      EXPECT_EQ(have.numeric_count, want.numeric_count);
      EXPECT_EQ(have.distinct_values, want.distinct_values);
      EXPECT_EQ(have.distinct_numeric, want.distinct_numeric);
      EXPECT_EQ(have.min_numeric, want.min_numeric);
      EXPECT_EQ(have.max_numeric, want.max_numeric);
      EXPECT_EQ(have.min_string, want.min_string);
      EXPECT_EQ(have.max_string, want.max_string);
      EXPECT_EQ(have.avg_value_length, want.avg_value_length);
      EXPECT_EQ(have.numeric_quantiles, want.numeric_quantiles);
    }
  }
}

/// Opens `manager` over `db` and writes LSNs 1-4 (collection C, two
/// inserts, the barrier opening epoch 2), checkpoints at LSN 4, then
/// writes LSNs 5-9: an insert, the barrier opening epoch 3, an insert,
/// index `ib` and a delete of the LSN 2 document.
void BuildEpochTail(WalManager* manager, Db* db) {
  ASSERT_TRUE(manager->Open(&db->store, &db->catalog, &db->stats).ok());
  ASSERT_TRUE(db->store.CreateCollection("C").ok());
  ASSERT_TRUE(manager->LogCreateCollection("C").ok());
  ASSERT_TRUE(RunInsert(manager, db, "C", "<a><b>1</b><s>x</s></a>").ok());
  ASSERT_TRUE(RunInsert(manager, db, "C", "<a><b>2</b><s>y</s></a>").ok());
  ASSERT_EQ(*manager->BumpEpoch(), 4u);
  ASSERT_TRUE(manager->Checkpoint(db->store, db->catalog).ok());
  ASSERT_TRUE(RunInsert(manager, db, "C", "<a><b>5</b></a>").ok());
  ASSERT_EQ(*manager->BumpEpoch(), 6u);
  ASSERT_TRUE(RunInsert(manager, db, "C", "<a><b>7</b><s>z</s></a>").ok());
  const xpath::IndexPattern pattern{*xpath::ParsePattern("/a/b"),
                                    xpath::ValueType::kNumeric};
  ASSERT_TRUE(db->catalog.CreateIndex("ib", "C", pattern).ok());
  ASSERT_TRUE(manager->LogCreateIndex("ib", "C", pattern).ok());
  engine::Executor executor(&db->store, &db->catalog);
  executor.set_commit_log(manager);
  auto del = engine::ParseStatement("delete from C where /a[b = 1]");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(executor.Execute(*del, optimizer::Plan()).ok());
  ASSERT_EQ(manager->GetStatus().next_lsn, 10u);
}

/// What a reopen of a data dir recovers.
struct Recovered {
  std::string digest;
  uint64_t repl_epoch = 0;
  uint64_t epoch_start_lsn = 0;
  uint64_t next_lsn = 0;
};

Recovered Reopen(const std::string& dir) {
  WalManager manager(dir);
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  EXPECT_TRUE(report.ok()) << report.status();
  return Recovered{Digest(&db.store), manager.repl_epoch(),
                   manager.epoch_start_lsn(), manager.GetStatus().next_lsn};
}

/// From-scratch reference for TruncateSuffix: copies the closed data dir
/// `dir`, cuts the copy's log down to the LSNs below `barrier` and
/// recovers it (checkpoint plus the surviving prefix).
Recovered RecoverPrefix(const std::string& dir, uint64_t barrier) {
  const std::string copy = dir + "_prefix";
  fs::remove_all(copy);
  fs::copy(dir, copy, fs::copy_options::recursive);
  const auto scanned = ScanLogFile(copy + "/wal.log");
  EXPECT_TRUE(scanned.ok()) << scanned.status();
  std::vector<std::string> prefix;
  for (const std::string& payload : scanned->payloads) {
    if (DecodeRecord(payload)->lsn < barrier) prefix.push_back(payload);
  }
  WriteFile(copy + "/wal.log", BuildLog(prefix));
  return Reopen(copy);
}

TEST(WalManagerTest, TruncateSuffixMatchesReplayOfTheSurvivingPrefix) {
  struct Case {
    uint64_t barrier;
    uint64_t repl_epoch;
    uint64_t epoch_start_lsn;
  };
  // Barrier 6 drops the epoch-3 barrier itself; barrier 8 keeps it.
  for (const Case c : {Case{6, 2, 4}, Case{8, 3, 6}}) {
    SCOPED_TRACE(c.barrier);
    const std::string dir =
        ScratchDir("truncate_suffix_" + std::to_string(c.barrier));
    {
      WalManager manager(dir);
      Db db;
      ASSERT_NO_FATAL_FAILURE(BuildEpochTail(&manager, &db));
      ASSERT_TRUE(manager.Close().ok());
    }
    const Recovered want = RecoverPrefix(dir, c.barrier);
    EXPECT_EQ(want.repl_epoch, c.repl_epoch);
    EXPECT_EQ(want.epoch_start_lsn, c.epoch_start_lsn);
    EXPECT_EQ(want.next_lsn, c.barrier);

    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.catalog.Get("ib").ok());
    const std::string digest_before = Digest(&db.store);
    const auto truncated =
        manager.TruncateSuffix(c.barrier, &db.store, &db.catalog, &db.stats);
    ASSERT_TRUE(truncated.ok()) << truncated.status();
    EXPECT_EQ(*truncated, 10 - c.barrier);  // LSNs barrier..9
    EXPECT_NE(Digest(&db.store), digest_before);
    EXPECT_EQ(Digest(&db.store), want.digest);
    EXPECT_FALSE(db.catalog.Get("ib").ok());  // created at LSN 8
    EXPECT_EQ(manager.repl_epoch(), c.repl_epoch);
    EXPECT_EQ(manager.epoch_start_lsn(), c.epoch_start_lsn);
    EXPECT_EQ(manager.checkpoint_lsn(), 4u);
    EXPECT_EQ(manager.GetStatus().next_lsn, c.barrier);
    ExpectFreshStatistics(db.stats, &db.store);
    ASSERT_TRUE(manager.Close().ok());

    const Recovered reopened = Reopen(dir);
    EXPECT_EQ(reopened.digest, want.digest);
    EXPECT_EQ(reopened.repl_epoch, c.repl_epoch);
    EXPECT_EQ(reopened.epoch_start_lsn, c.epoch_start_lsn);
    EXPECT_EQ(reopened.next_lsn, c.barrier);
  }
}

TEST(WalManagerTest, TruncateSuffixBelowTheCheckpointLeavesStateUntouched) {
  const std::string dir = ScratchDir("truncate_covered");
  WalManager manager(dir);
  Db db;
  ASSERT_NO_FATAL_FAILURE(BuildEpochTail(&manager, &db));
  const std::string digest_before = Digest(&db.store);
  const std::string log_before = ReadFile(manager.LogPath());
  for (const uint64_t barrier : {4u, 2u}) {
    SCOPED_TRACE(barrier);
    const auto truncated =
        manager.TruncateSuffix(barrier, &db.store, &db.catalog, &db.stats);
    EXPECT_EQ(truncated.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(Digest(&db.store), digest_before);
    EXPECT_TRUE(db.catalog.Get("ib").ok());
    EXPECT_EQ(ReadFile(manager.LogPath()), log_before);
    EXPECT_EQ(manager.GetStatus().next_lsn, 10u);
    EXPECT_EQ(manager.repl_epoch(), 3u);
  }
  EXPECT_EQ(manager.TruncateSuffix(0, &db.store, &db.catalog, &db.stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WalManagerTest, TruncateSuffixDropsTheStatisticsOfACollectionItRemoves) {
  const std::string dir = ScratchDir("truncate_created_collection");
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());
  ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
  ASSERT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
  // The suffix from LSN 3 creates collection D and inserts into it.
  ASSERT_TRUE(db.store.CreateCollection("D").ok());
  ASSERT_TRUE(manager.LogCreateCollection("D").ok());
  ASSERT_TRUE(RunInsert(&manager, &db, "D", "<d><e>1</e></d>").ok());
  ASSERT_EQ(manager.GetStatus().next_lsn, 5u);
  for (const char* name : {"C", "D"}) {
    db.stats.RunStats(**db.store.GetCollection(name));
  }
  ASSERT_TRUE(db.stats.Get("D").ok());

  const auto truncated =
      manager.TruncateSuffix(3, &db.store, &db.catalog, &db.stats);
  ASSERT_TRUE(truncated.ok()) << truncated.status();
  EXPECT_EQ(*truncated, 2u);
  EXPECT_FALSE(db.store.GetCollection("D").ok());
  EXPECT_FALSE(db.stats.Get("D").ok());
  ExpectFreshStatistics(db.stats, &db.store);
  ASSERT_TRUE(manager.Close().ok());
}

TEST(WalManagerTest, ResetForResyncLeavesAFreshEmptyDatabase) {
  const std::string dir = ScratchDir("resync_reset");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_NO_FATAL_FAILURE(BuildEpochTail(&manager, &db));
    db.stats.RunStats(**db.store.GetCollection("C"));
    ASSERT_TRUE(db.stats.Get("C").ok());
    ASSERT_TRUE(manager.ResetForResync(&db.store, &db.catalog, &db.stats)
                    .ok());
    EXPECT_TRUE(db.store.CollectionNames().empty());
    EXPECT_FALSE(db.stats.Get("C").ok());
    EXPECT_FALSE(db.catalog.Get("ib").ok());
    EXPECT_EQ(manager.repl_epoch(), 1u);
    EXPECT_EQ(manager.epoch_start_lsn(), 0u);
    EXPECT_EQ(manager.checkpoint_lsn(), 0u);
    EXPECT_EQ(manager.GetStatus().next_lsn, 1u);
    ASSERT_TRUE(manager.Close().ok());
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "MANIFEST" || name == "wal.log") << name;
  }
  WalManager manager(dir);
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->fresh_start);
  EXPECT_EQ(report->records_replayed, 0u);
  EXPECT_TRUE(db.store.CollectionNames().empty());
  EXPECT_EQ(manager.repl_epoch(), 1u);
  EXPECT_EQ(manager.epoch_start_lsn(), 0u);
  EXPECT_EQ(manager.checkpoint_lsn(), 0u);
  EXPECT_EQ(manager.GetStatus().next_lsn, 1u);
}

TEST(WalManagerTest, RecoveredStatisticsMatchAFreshRunStats) {
  const std::string dir = ScratchDir("recovered_stats");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(RunInsert(&manager, &db, "C",
                            "<a><b>" + std::to_string(i * 3) + "</b><s>n" +
                                std::to_string(i) + "</s></a>")
                      .ok());
    }
    ASSERT_TRUE(manager.Checkpoint(db.store, db.catalog).ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>40</b></a>").ok());
    // A logged refresh followed by more data: statistics replayed from
    // the refresh alone would miss the last insert.
    ASSERT_TRUE(manager.LogStatsRefresh("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><c>q</c></a>").ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  WalManager manager(dir);
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->records_replayed, 3u);
  ExpectFreshStatistics(db.stats, &db.store);
}

TEST(WalManagerTest, InstalledCheckpointStatisticsMatchAFreshRunStats) {
  const std::string leader_dir = ScratchDir("install_stats_leader");
  BuildCheckpointedDir(leader_dir);
  WalManager leader(leader_dir);
  Db leader_db;
  ASSERT_TRUE(
      leader.Open(&leader_db.store, &leader_db.catalog, &leader_db.stats)
          .ok());
  const auto image = leader.ReadCheckpointImage();
  ASSERT_TRUE(image.ok()) << image.status();

  // The follower starts with its own, larger collection C and statistics
  // over it, which the install must replace.
  WalManager follower(ScratchDir("install_stats_follower"));
  Db db;
  ASSERT_TRUE(follower.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunInsert(&follower, &db, "C",
                          "<a><d>" + std::to_string(i) + "</d></a>")
                    .ok());
  }
  db.stats.RunStats(**db.store.GetCollection("C"));
  ASSERT_TRUE(follower.InstallCheckpoint(*image, &db.store, &db.catalog,
                                         &db.stats)
                  .ok());
  EXPECT_EQ((*(*db.store.GetCollection("C"))).live_count(), 2u);
  ExpectFreshStatistics(db.stats, &db.store);
}

TEST(WalManagerTest, AppendReplicatedIsContiguousAndDurable) {
  const std::string dir = ScratchDir("appendrepl");
  std::string digest_before;
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());

    WalRecord create = WalRecord::CreateCollection("C");
    create.lsn = 1;
    ASSERT_TRUE(manager.AppendReplicated(create).ok());
    WalRecord insert = WalRecord::Insert("C", "<a><b>1</b></a>");
    insert.lsn = 2;
    ASSERT_TRUE(manager.AppendReplicated(insert).ok());

    // A gap must be refused before it hits the file: the follower's
    // stream validated contiguity, so a gap here is a programming error.
    WalRecord gap = WalRecord::Insert("C", "<a><b>9</b></a>");
    gap.lsn = 5;
    EXPECT_EQ(manager.AppendReplicated(gap).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(manager.GetStatus().next_lsn, 3u);

    // The accepted records are readable by a tail follower immediately.
    TailCursor cursor;
    auto batch = manager.ReadTail(&cursor, 100, 0);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->payloads.size(), 2u);
    ASSERT_TRUE(manager.Close().ok());
  }
  // Replicated appends recover exactly like local commits.
  WalManager manager(dir);
  Db db;
  const auto report = manager.Open(&db.store, &db.catalog, &db.stats);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->records_replayed, 2u);
  auto coll = db.store.GetCollection("C");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->live_count(), 1u);
}

TEST(WalManagerTest, CommitFailureKeepsStatementOutOfTheSink) {
  // WAL ordering contract: the capture sink sees a mutation only after
  // its commit succeeded.
  struct CountingSink : engine::QuerySink {
    int calls = 0;
    void OnExecuted(const engine::Statement&,
                    const engine::ExecResult&) override {
      ++calls;
    }
  };
  const std::string dir = ScratchDir("sink_order");
  fault::ScopedFaultDisarm cleanup;
  WalManager manager(dir);
  Db db;
  ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
  ASSERT_TRUE(db.store.CreateCollection("C").ok());
  ASSERT_TRUE(manager.LogCreateCollection("C").ok());

  CountingSink sink;
  engine::Executor executor(&db.store, &db.catalog);
  executor.set_commit_log(&manager);
  executor.set_sink(&sink);
  auto ins = engine::ParseStatement("insert into C <a><b>1</b></a>");
  ASSERT_TRUE(ins.ok());

  fault::FaultRegistry::Global().Arm(fault::points::kWalAppend,
                                     fault::FaultSpec::Probability(1));
  const auto failed = executor.Execute(*ins, optimizer::Plan());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(sink.calls, 0);

  fault::FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(executor.Execute(*ins, optimizer::Plan()).ok());
  EXPECT_EQ(sink.calls, 1);
}

TEST(WalManagerTest, TenThousandMutationRecoveryMeetsTheDeadline) {
  const std::string dir = ScratchDir("10k");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    engine::Executor executor(&db.store, &db.catalog);
    executor.set_commit_log(&manager);
    for (int i = 0; i < 10000; ++i) {
      auto st = engine::ParseStatement("insert into C <a><b>" +
                                       std::to_string(i) + "</b></a>");
      ASSERT_TRUE(st.ok());
      ASSERT_TRUE(executor.Execute(*st, optimizer::Plan()).ok()) << i;
    }
    ASSERT_TRUE(manager.Close().ok());
  }
  {
    WalManager manager(dir);
    Db db;
    auto report = manager.Open(&db.store, &db.catalog, &db.stats,
                               fault::Deadline::AfterSeconds(5));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->records_replayed, 10001u);
    EXPECT_LT(report->seconds, 5.0);
    auto coll = db.store.GetCollection("C");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ((*coll)->live_count(), 10000u);
  }
}

TEST(WalManagerTest, ExpiredDeadlineAbortsRecovery) {
  const std::string dir = ScratchDir("deadline");
  {
    WalManager manager(dir);
    Db db;
    ASSERT_TRUE(manager.Open(&db.store, &db.catalog, &db.stats).ok());
    ASSERT_TRUE(db.store.CreateCollection("C").ok());
    ASSERT_TRUE(manager.LogCreateCollection("C").ok());
    ASSERT_TRUE(RunInsert(&manager, &db, "C", "<a><b>1</b></a>").ok());
    ASSERT_TRUE(manager.Close().ok());
  }
  WalManager manager(dir);
  Db db;
  auto report = manager.Open(&db.store, &db.catalog, &db.stats,
                             fault::Deadline::AfterMillis(-1));
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
  // Stage-and-swap: the aborted recovery left the target store untouched.
  EXPECT_TRUE(db.store.CollectionNames().empty());
}

}  // namespace
}  // namespace xia::wal
