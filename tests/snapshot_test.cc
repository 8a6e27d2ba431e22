// Snapshot round-trip tests: structure, values, DocId stability (including
// tombstones), index rebuild equivalence, and corruption handling.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>

#include "fault/fault.h"
#include "scratch_dir.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage/statistics.h"
#include "tpox/tpox_data.h"
#include "util/crc32.h"
#include "util/random.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia::storage {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 60;
    scale.order_docs = 80;
    scale.custacc_docs = 30;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    // Punch holes so tombstones are exercised.
    auto coll = store_.GetCollection(tpox::kSecurityCollection);
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Remove(3).ok());
    ASSERT_TRUE((*coll)->Remove(17).ok());
    ASSERT_TRUE((*coll)->Remove(59).ok());
  }

  DocumentStore store_;
  StatisticsCatalog stats_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());

  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshot(buffer, &restored).ok());

  ASSERT_EQ(restored.CollectionNames(), store_.CollectionNames());
  for (const std::string& name : store_.CollectionNames()) {
    auto original = store_.GetCollection(name);
    auto loaded = restored.GetCollection(name);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ((*loaded)->live_count(), (*original)->live_count()) << name;
    EXPECT_EQ((*loaded)->id_bound(), (*original)->id_bound()) << name;
    EXPECT_EQ((*loaded)->total_nodes(), (*original)->total_nodes()) << name;
    for (xml::DocId id = 0; id < (*original)->id_bound(); ++id) {
      ASSERT_EQ((*loaded)->IsLive(id), (*original)->IsLive(id))
          << name << " doc " << id;
      if (!(*original)->IsLive(id)) continue;
      // Byte-identical serialization is the strongest cheap equality.
      EXPECT_EQ(xml::Serialize((*loaded)->Get(id)),
                xml::Serialize((*original)->Get(id)))
          << name << " doc " << id;
    }
  }
}

TEST_F(SnapshotTest, IndexesBuiltOnRestoredStoreMatch) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshot(buffer, &restored).ok());

  const xpath::IndexPattern pattern{
      *xpath::ParsePattern("/Security/Symbol"), xpath::ValueType::kString};
  auto a = store_.GetCollection(tpox::kSecurityCollection);
  auto b = restored.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  PathValueIndex ia("a", "SDOC", pattern);
  PathValueIndex ib("b", "SDOC", pattern);
  ia.Build(**a);
  ib.Build(**b);
  ASSERT_EQ(ia.entry_count(), ib.entry_count());
  // RIDs agree exactly because DocIds were preserved.
  auto ra = ia.LookupAll();
  auto rb = ib.LookupAll();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->rids.size(), rb->rids.size());
  for (size_t i = 0; i < ra->rids.size(); ++i) {
    EXPECT_TRUE(ra->rids[i] == rb->rids[i]) << i;
  }
}

TEST_F(SnapshotTest, EmptyStoreRoundTrips) {
  DocumentStore empty;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(empty, buffer).ok());
  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshot(buffer, &restored).ok());
  EXPECT_TRUE(restored.CollectionNames().empty());
}

TEST_F(SnapshotTest, LoadIntoNonEmptyStoreRejected) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
  auto status = LoadSnapshot(buffer, &store_);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, BadMagicRejected) {
  std::stringstream buffer("definitely not a snapshot");
  DocumentStore restored;
  auto status = LoadSnapshot(buffer, &restored);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, TruncationRejectedEverywhere) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
  const std::string full = buffer.str();
  Random rng(5);
  // Random truncation points (plus a few boundaries) all fail cleanly.
  std::vector<size_t> cuts = {8, 9, 12, full.size() - 1, full.size() / 2};
  for (int i = 0; i < 20; ++i) cuts.push_back(rng.Uniform(full.size()));
  for (size_t cut : cuts) {
    std::stringstream cut_stream(full.substr(0, cut));
    DocumentStore restored;
    auto status = LoadSnapshot(cut_stream, &restored);
    EXPECT_FALSE(status.ok()) << "cut at " << cut;
  }
}

TEST_F(SnapshotTest, CorruptedBytesDoNotCrash) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
  const std::string full = buffer.str();
  Random rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    std::string corrupted = full;
    const size_t pos = 8 + rng.Uniform(corrupted.size() - 8);
    corrupted[pos] = static_cast<char>(rng.Uniform(256));
    std::stringstream in(corrupted);
    DocumentStore restored;
    (void)LoadSnapshot(in, &restored);  // any Status is fine; no crash/UB
  }
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string path =
      testutil::ScratchDir("file_round_trip") + "/snapshot.bin";
  ASSERT_TRUE(SaveSnapshotToFile(store_, path).ok());
  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshotFromFile(path, &restored).ok());
  EXPECT_EQ(restored.CollectionNames(), store_.CollectionNames());
  EXPECT_FALSE(LoadSnapshotFromFile("/nonexistent/snapshot", &restored).ok());
}

// A store small enough that every byte offset can be corrupted
// exhaustively.
class TinySnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto coll_a = store_.CreateCollection("A");
    ASSERT_TRUE(coll_a.ok());
    auto doc1 = xml::Parse("<r><x>1</x><y a=\"b\">two</y></r>");
    ASSERT_TRUE(doc1.ok());
    (*coll_a)->Add(std::move(*doc1));
    auto doc2 = xml::Parse("<r><x>3</x></r>");
    ASSERT_TRUE(doc2.ok());
    (*coll_a)->Add(std::move(*doc2));
    ASSERT_TRUE((*coll_a)->Remove(0).ok());  // one tombstone
    auto coll_b = store_.CreateCollection("B");
    ASSERT_TRUE(coll_b.ok());
    auto doc3 = xml::Parse("<q><k>v</k></q>");
    ASSERT_TRUE(doc3.ok());
    (*coll_b)->Add(std::move(*doc3));

    std::stringstream buffer;
    ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
    bytes_ = buffer.str();
  }

  DocumentStore store_;
  std::string bytes_;
};

TEST_F(TinySnapshotTest, EveryByteFlipIsRejectedAndTargetUntouched) {
  // Inverting any single byte (magic, counts, lengths, payload, checksum)
  // must make the load fail with a clean Status AND leave the target store
  // untouched — the stage-and-swap guarantee. A ^0xFF flip inside a
  // section payload is a <=8-bit burst error, which CRC-32 always detects.
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::string corrupt = bytes_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xFF);
    std::stringstream in(corrupt);
    DocumentStore restored;
    const auto status = LoadSnapshot(in, &restored);
    EXPECT_FALSE(status.ok()) << "flip at offset " << offset;
    EXPECT_TRUE(restored.CollectionNames().empty())
        << "partial mutation after flip at offset " << offset;
  }
}

TEST_F(TinySnapshotTest, EveryTruncationIsRejectedAndTargetUntouched) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    std::stringstream in(bytes_.substr(0, len));
    DocumentStore restored;
    const auto status = LoadSnapshot(in, &restored);
    EXPECT_FALSE(status.ok()) << "truncated to " << len << " bytes";
    EXPECT_TRUE(restored.CollectionNames().empty())
        << "partial mutation after truncation to " << len << " bytes";
  }
}

TEST_F(TinySnapshotTest, LegacyV1SnapshotIsRejected) {
  // The unframed, unchecksummed v1 format no longer loads: its magic
  // alone rejects the file.
  std::string v1 = bytes_;
  v1[7] = '1';
  std::stringstream in(v1);
  DocumentStore restored;
  const Status status = LoadSnapshot(in, &restored);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("bad magic"), std::string::npos) << status;
  EXPECT_TRUE(restored.CollectionNames().empty());
}

// A snapshot of one collection "C" holding one root-only document whose
// value has `value_len` declared bytes, of which `value_bytes` are
// present, in one CRC-valid section.
std::string SingleValueSnapshot(uint32_t value_len, size_t value_bytes) {
  std::string section;
  const auto put_u32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_u32(&section, 1);          // name length
  section += 'C';
  put_u32(&section, 1);          // slots
  section.push_back(1);          // live
  put_u32(&section, 1);          // nodes
  section.push_back(0);          // element
  put_u32(&section, 1);          // label length
  section += 'r';
  put_u32(&section, value_len);
  section.append(value_bytes, 'v');
  put_u32(&section, 0xFFFFFFFFu);  // the root's parent

  std::string out = "XIASNAP2";
  put_u32(&out, 1);  // collections
  put_u32(&out, static_cast<uint32_t>(section.size()));
  out += section;
  put_u32(&out, Crc32(section));
  return out;
}

TEST(SnapshotLimitsTest, OversizedValuesAreParseErrors) {
  constexpr uint32_t kMaxString = 64u << 20;
  {
    // The hand-made encoding itself loads.
    std::istringstream in(SingleValueSnapshot(5, 5));
    DocumentStore restored;
    ASSERT_TRUE(LoadSnapshot(in, &restored).ok());
    auto coll = restored.GetCollection("C");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ(std::string((*coll)->Get(0).value(0)), "vvvvv");
  }
  struct Case {
    uint32_t declared;
    size_t present;
  };
  // A 2 GiB declared length with a short body, and a value one byte over
  // the 64 MiB string bound with every byte present. Both sections pass
  // their CRC, so the bound itself must reject them.
  for (const Case c :
       {Case{0x80000000u, 16}, Case{kMaxString + 1, kMaxString + 1}}) {
    std::istringstream in(SingleValueSnapshot(c.declared, c.present));
    DocumentStore restored;
    const Status status = LoadSnapshot(in, &restored);
    EXPECT_EQ(status.code(), StatusCode::kParseError)
        << c.declared << ": " << status.ToString();
    EXPECT_TRUE(restored.CollectionNames().empty()) << c.declared;
  }
}

TEST_F(SnapshotTest, FailedSaveLeavesPreviousFileIntact) {
  // Atomic-save regression: a save that fails (here via the injected
  // fault, which fires before any byte is written) must leave the
  // previous good snapshot untouched — no truncation, no partial file.
  const std::string path =
      testutil::ScratchDir("failed_save") + "/snapshot.bin";
  ASSERT_TRUE(SaveSnapshotToFile(store_, path).ok());

  std::ifstream before_in(path, std::ios::binary);
  std::stringstream before;
  before << before_in.rdbuf();

  fault::ScopedFaultDisarm cleanup;
  fault::FaultRegistry::Global().Arm(fault::points::kSnapshotWrite,
                                     fault::FaultSpec::Probability(1));
  auto coll = store_.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->Remove(5).ok());  // make the store differ
  EXPECT_FALSE(SaveSnapshotToFile(store_, path).ok());
  fault::FaultRegistry::Global().DisarmAll();

  std::ifstream after_in(path, std::ios::binary);
  std::stringstream after;
  after << after_in.rdbuf();
  EXPECT_EQ(after.str(), before.str());
  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshotFromFile(path, &restored).ok());
}

TEST_F(SnapshotTest, StatisticsOverRestoredStoreMatch) {
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store_, buffer).ok());
  DocumentStore restored;
  ASSERT_TRUE(LoadSnapshot(buffer, &restored).ok());

  auto coll_a = store_.GetCollection(tpox::kOrderCollection);
  auto coll_b = restored.GetCollection(tpox::kOrderCollection);
  ASSERT_TRUE(coll_a.ok());
  ASSERT_TRUE(coll_b.ok());
  CollectionStatistics sa;
  CollectionStatistics sb;
  sa.Collect(**coll_a);
  sb.Collect(**coll_b);
  ASSERT_EQ(sa.paths().size(), sb.paths().size());
  for (const auto& [path, stats] : sa.paths()) {
    const auto& other = sb.paths().at(path);
    EXPECT_EQ(stats.count, other.count) << path;
    EXPECT_EQ(stats.distinct_values, other.distinct_values) << path;
  }
}

// Golden bytes: pins SaveSnapshot's exact output over a small TPoX store
// with a tombstone, attribute-bearing order documents and values rewritten
// both longer and shorter in place. Any change to the document layout or
// to the snapshot encoder must leave every byte unchanged. On a mismatch
// the actual bytes are written to the test temp directory for inspection
// (and, after a deliberate format change, for copying over
// tests/testdata/tpox_snapshot.golden).
TEST(SnapshotGoldenTest, TpoxStoreBytesArePinned) {
  DocumentStore store;
  StatisticsCatalog stats;
  tpox::TpoxScale scale;
  scale.security_docs = 3;
  scale.order_docs = 3;
  scale.custacc_docs = 2;
  ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store, &stats).ok());
  auto securities = store.GetCollection(tpox::kSecurityCollection);
  ASSERT_TRUE(securities.ok());
  ASSERT_TRUE((*securities)->Remove(1).ok());
  (*securities)->Mutate(2, [](xml::Document* doc) {
    doc->SetValue(1, "a value longer than any generated symbol");
    doc->SetValue(2, "");
  });
  auto orders = store.GetCollection(tpox::kOrderCollection);
  ASSERT_TRUE(orders.ok());
  (*orders)->Mutate(0, [](xml::Document* doc) { doc->SetValue(2, "9"); });

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(store, buffer).ok());
  const std::string actual = buffer.str();

  std::ifstream in(XIA_TESTDATA_DIR "/tpox_snapshot.golden", std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  if (actual != golden) {
    const std::string path = ::testing::TempDir() + "tpox_snapshot.actual";
    std::ofstream(path, std::ios::binary) << actual;
    size_t at = 0;
    while (at < actual.size() && at < golden.size() &&
           actual[at] == golden[at]) {
      ++at;
    }
    FAIL() << "snapshot bytes differ from the golden file at offset " << at
           << " (actual " << actual.size() << " bytes, golden "
           << golden.size() << "); actual bytes written to " << path;
  }
}

}  // namespace
}  // namespace xia::storage
