#include <gtest/gtest.h>

#include <fstream>

#include "scratch_dir.h"

#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/index.h"
#include "storage/statistics.h"
#include "storage/xml_directory.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xia::storage {
namespace {

xml::Document Doc(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(*doc);
}

xpath::IndexPattern Pattern(const char* text,
                            xpath::ValueType type = xpath::ValueType::kString) {
  auto p = xpath::ParsePattern(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return {*p, type};
}

// A small fixture with a few Security-like documents.
class StorageFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto coll = store_.CreateCollection("SDOC");
    ASSERT_TRUE(coll.ok());
    coll_ = *coll;
    AddSecurity("IBM", "4.8", "Energy");
    AddSecurity("MSFT", "2.1", "Tech");
    AddSecurity("XOM", "6.5", "Energy");
    AddSecurity("NOVAL", "", "Tech");  // missing yield value
    stats_.RunStats(*coll_);
  }

  void AddSecurity(const std::string& symbol, const std::string& yield,
                   const std::string& sector) {
    std::string yield_el =
        yield.empty() ? "<Yield/>" : "<Yield>" + yield + "</Yield>";
    doc_ids_.push_back(coll_->Add(Doc(
        "<Security><Symbol>" + symbol + "</Symbol>" + yield_el +
        "<SecInfo><StockInformation><Sector>" + sector +
        "</Sector></StockInformation></SecInfo></Security>")));
  }

  DocumentStore store_;
  Collection* coll_ = nullptr;
  StatisticsCatalog stats_;
  std::vector<xml::DocId> doc_ids_;
};

TEST_F(StorageFixture, CollectionBasics) {
  EXPECT_EQ(coll_->live_count(), 4u);
  EXPECT_GT(coll_->total_bytes(), 0u);
  EXPECT_GT(coll_->total_nodes(), 0u);
  EXPECT_TRUE(coll_->IsLive(doc_ids_[0]));
  EXPECT_FALSE(coll_->IsLive(99));
  EXPECT_FALSE(coll_->IsLive(-1));
}

TEST_F(StorageFixture, RemoveKeepsIdsStable) {
  const size_t bytes_before = coll_->total_bytes();
  ASSERT_TRUE(coll_->Remove(doc_ids_[1]).ok());
  EXPECT_EQ(coll_->live_count(), 3u);
  EXPECT_LT(coll_->total_bytes(), bytes_before);
  EXPECT_FALSE(coll_->IsLive(doc_ids_[1]));
  EXPECT_TRUE(coll_->IsLive(doc_ids_[2]));
  EXPECT_FALSE(coll_->Remove(doc_ids_[1]).ok());  // double remove
  // New documents do not reuse the removed slot.
  const xml::DocId fresh = coll_->Add(Doc("<Security/>"));
  EXPECT_NE(fresh, doc_ids_[1]);
}

TEST_F(StorageFixture, ForEachSkipsDead) {
  ASSERT_TRUE(coll_->Remove(doc_ids_[0]).ok());
  size_t seen = 0;
  coll_->ForEach([&](xml::DocId id, const xml::Document&) {
    EXPECT_NE(id, doc_ids_[0]);
    ++seen;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(DocumentStoreTest, CollectionLifecycle) {
  DocumentStore store;
  EXPECT_TRUE(store.CreateCollection("A").ok());
  EXPECT_FALSE(store.CreateCollection("A").ok());
  EXPECT_TRUE(store.GetCollection("A").ok());
  EXPECT_FALSE(store.GetCollection("B").ok());
  ASSERT_TRUE(store.CreateCollection("B").ok());
  EXPECT_EQ(store.CollectionNames(),
            (std::vector<std::string>{"A", "B"}));
}

TEST_F(StorageFixture, PathStatisticsContents) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ((*cs)->document_count(), 4u);

  const auto& paths = (*cs)->paths();
  ASSERT_TRUE(paths.count("/Security/Symbol"));
  const PathStats& symbol = paths.at("/Security/Symbol");
  EXPECT_EQ(symbol.count, 4u);
  EXPECT_EQ(symbol.valued_count, 4u);
  EXPECT_EQ(symbol.distinct_values, 4u);
  EXPECT_EQ(symbol.numeric_count, 0u);
  EXPECT_EQ(symbol.min_string, "IBM");
  EXPECT_EQ(symbol.max_string, "XOM");

  const PathStats& yield = paths.at("/Security/Yield");
  EXPECT_EQ(yield.count, 4u);
  EXPECT_EQ(yield.valued_count, 3u);  // one empty
  EXPECT_EQ(yield.numeric_count, 3u);
  EXPECT_DOUBLE_EQ(yield.min_numeric, 2.1);
  EXPECT_DOUBLE_EQ(yield.max_numeric, 6.5);

  const PathStats& sector =
      paths.at("/Security/SecInfo/StockInformation/Sector");
  EXPECT_EQ(sector.count, 4u);
  EXPECT_EQ(sector.distinct_values, 2u);  // Energy, Tech
}

TEST_F(StorageFixture, DistinctCountExtrapolatesWhenSaturated) {
  // With a tiny distinct cap, RUNSTATS stops tracking exact distincts and
  // extrapolates from the valued count (sampling-style approximation).
  CollectionStatistics stats;
  CollectionStatistics::CollectOptions options;
  options.distinct_cap = 2;
  stats.Collect(*coll_, options);
  const PathStats& symbol = stats.paths().at("/Security/Symbol");
  EXPECT_GE(symbol.distinct_values, 2u);   // at least what it saw
  EXPECT_LE(symbol.distinct_values, symbol.valued_count);
}

TEST_F(StorageFixture, DeriveIndexStatsRespectsPatternAndType) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  const CostConstants& cc = DefaultCostConstants();

  const IndexStats symbol =
      (*cs)->DeriveIndexStats(Pattern("/Security/Symbol"), cc);
  EXPECT_EQ(symbol.entry_count, 4u);
  EXPECT_EQ(symbol.distinct_keys, 4u);
  EXPECT_GT(symbol.size_bytes, 0u);

  const IndexStats yield = (*cs)->DeriveIndexStats(
      Pattern("/Security/Yield", xpath::ValueType::kNumeric), cc);
  EXPECT_EQ(yield.entry_count, 3u);  // empty value rejected
  EXPECT_DOUBLE_EQ(yield.min_numeric, 2.1);
  EXPECT_DOUBLE_EQ(yield.max_numeric, 6.5);

  // Wildcard pattern folds both matching concrete paths.
  const IndexStats sector =
      (*cs)->DeriveIndexStats(Pattern("/Security/SecInfo/*/Sector"), cc);
  EXPECT_EQ(sector.entry_count, 4u);

  // Universal pattern counts every valued node.
  const IndexStats universal = (*cs)->DeriveIndexStats(Pattern("//*"), cc);
  EXPECT_GT(universal.entry_count, sector.entry_count);
}

TEST_F(StorageFixture, DerivedStatsMatchActualIndex) {
  // The virtual-index statistics derivation must agree with a really built
  // index on entry counts (the quantity driving costs).
  for (const char* pattern_text :
       {"/Security/Symbol", "/Security/SecInfo/*/Sector", "//*"}) {
    const xpath::IndexPattern pattern = Pattern(pattern_text);
    PathValueIndex index("t", "SDOC", pattern);
    index.Build(*coll_);
    auto cs = stats_.Get("SDOC");
    ASSERT_TRUE(cs.ok());
    const IndexStats derived =
        (*cs)->DeriveIndexStats(pattern, DefaultCostConstants());
    EXPECT_EQ(derived.entry_count, index.entry_count()) << pattern_text;
  }
}

TEST_F(StorageFixture, EstimatePathCardinality) {
  auto cs = stats_.Get("SDOC");
  ASSERT_TRUE(cs.ok());
  EXPECT_DOUBLE_EQ((*cs)->EstimatePathCardinality(*xpath::ParsePattern(
                       "/Security/Symbol")),
                   4.0);
  EXPECT_DOUBLE_EQ(
      (*cs)->EstimatePathCardinality(*xpath::ParsePattern("/Security")), 4.0);
  EXPECT_DOUBLE_EQ(
      (*cs)->EstimatePathCardinality(*xpath::ParsePattern("/Nothing")), 0.0);
}

TEST_F(StorageFixture, IndexLookupEquality) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 4u);
  auto hits = index.Lookup(xpath::CompareOp::kEq,
                           xpath::Literal::String("IBM"));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->rids.size(), 1u);
  EXPECT_EQ(hits->rids[0].doc, doc_ids_[0]);
  EXPECT_GE(hits->leaf_pages_touched, 1u);
}

TEST_F(StorageFixture, IndexLookupNumericRanges) {
  PathValueIndex index(
      "yield", "SDOC",
      Pattern("/Security/Yield", xpath::ValueType::kNumeric));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 3u);  // NOVAL skipped

  auto gt = index.Lookup(xpath::CompareOp::kGt, xpath::Literal::Number(4.5));
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->rids.size(), 2u);  // 4.8, 6.5

  auto ge = index.Lookup(xpath::CompareOp::kGe, xpath::Literal::Number(4.8));
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->rids.size(), 2u);

  auto lt = index.Lookup(xpath::CompareOp::kLt, xpath::Literal::Number(4.8));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->rids.size(), 1u);  // 2.1

  auto le = index.Lookup(xpath::CompareOp::kLe, xpath::Literal::Number(4.8));
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->rids.size(), 2u);

  auto eq = index.Lookup(xpath::CompareOp::kEq, xpath::Literal::Number(6.5));
  ASSERT_TRUE(eq.ok());
  ASSERT_EQ(eq->rids.size(), 1u);
  EXPECT_EQ(eq->rids[0].doc, doc_ids_[2]);
}

TEST_F(StorageFixture, IndexRejectsUnsupportedLookups) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_FALSE(
      index.Lookup(xpath::CompareOp::kNe, xpath::Literal::String("x")).ok());
  EXPECT_FALSE(
      index.Lookup(xpath::CompareOp::kEq, xpath::Literal::Number(1)).ok());
}

TEST_F(StorageFixture, IndexMaintenance) {
  PathValueIndex index("sym", "SDOC", Pattern("/Security/Symbol"));
  index.Build(*coll_);
  EXPECT_EQ(index.entry_count(), 4u);

  xml::Document doc = Doc("<Security><Symbol>NEW</Symbol></Security>");
  const xml::DocId id = coll_->Add(Doc("<Security><Symbol>NEW</Symbol></Security>"));
  index.OnInsert(id, coll_->Get(id));
  EXPECT_EQ(index.entry_count(), 5u);
  auto hits =
      index.Lookup(xpath::CompareOp::kEq, xpath::Literal::String("NEW"));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->rids.size(), 1u);

  index.OnRemove(id, coll_->Get(id));
  EXPECT_EQ(index.entry_count(), 4u);
}

TEST_F(StorageFixture, UniversalIndexIndexesEverything) {
  PathValueIndex index("all", "SDOC", Pattern("//*"));
  index.Build(*coll_);
  // Every node with a non-empty value: 3 symbols + 3 yields + 4 sectors
  // + NOVAL symbol = 4 symbols, 3 yields, 4 sectors = 11.
  EXPECT_EQ(index.entry_count(), 11u);
}

TEST_F(StorageFixture, CatalogRealAndVirtual) {
  Catalog catalog(&store_, &stats_);
  auto real = catalog.CreateIndex("r1", "SDOC", Pattern("/Security/Symbol"));
  ASSERT_TRUE(real.ok()) << real.status();
  EXPECT_FALSE((*real)->is_virtual);
  EXPECT_EQ((*real)->stats.entry_count, 4u);

  auto virt = catalog.CreateVirtualIndex(
      "v1", "SDOC", Pattern("/Security/Yield", xpath::ValueType::kNumeric));
  ASSERT_TRUE(virt.ok()) << virt.status();
  EXPECT_TRUE((*virt)->is_virtual);
  EXPECT_EQ((*virt)->stats.entry_count, 3u);
  EXPECT_EQ((*virt)->physical, nullptr);

  EXPECT_FALSE(catalog.CreateIndex("r1", "SDOC", Pattern("//*")).ok());
  EXPECT_EQ(catalog.IndexesFor("SDOC").size(), 2u);
  EXPECT_TRUE(catalog.IndexesFor("OTHER").empty());

  EXPECT_TRUE(catalog.GetPhysical("r1").ok());
  EXPECT_FALSE(catalog.GetPhysical("v1").ok());

  catalog.DropAllVirtualIndexes();
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Get("r1").ok());
  EXPECT_FALSE(catalog.Get("v1").ok());
  EXPECT_TRUE(catalog.DropIndex("r1").ok());
  EXPECT_FALSE(catalog.DropIndex("r1").ok());
}

TEST_F(StorageFixture, CatalogNotifyMaintainsRealIndexes) {
  Catalog catalog(&store_, &stats_);
  ASSERT_TRUE(catalog.CreateIndex("r1", "SDOC",
                                  Pattern("/Security/Symbol")).ok());
  const xml::DocId id =
      coll_->Add(Doc("<Security><Symbol>ZZZ</Symbol></Security>"));
  catalog.NotifyInsert("SDOC", id, coll_->Get(id));
  auto physical = catalog.GetPhysical("r1");
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ((*physical)->entry_count(), 5u);
  catalog.NotifyRemove("SDOC", id, coll_->Get(id));
  EXPECT_EQ((*physical)->entry_count(), 4u);
}

TEST_F(StorageFixture, VirtualIndexRequiresStatistics) {
  StatisticsCatalog empty_stats;
  Catalog catalog(&store_, &empty_stats);
  EXPECT_FALSE(
      catalog.CreateVirtualIndex("v", "SDOC", Pattern("//*")).ok());
}

// ---- Bulk build fast paths ----

// A bigger mixed collection: varied values (duplicates, empties,
// non-numeric yields) plus deleted documents, so the bulk paths face
// tombstones and rejected keys, not just the happy path.
class BulkBuildFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    coll_ = *store_.CreateCollection("SDOC");
    for (int i = 0; i < 200; ++i) {
      const std::string sym = "S" + std::to_string(i % 37);
      const std::string yield = (i % 11 == 0)   ? ""
                                : (i % 13 == 0) ? "n/a"
                                                : std::to_string(i % 29) + ".5";
      AddSecurity(sym, yield, i % 2 ? "Energy" : "Tech");
    }
    // Tombstones in the middle of the id space.
    for (int i = 40; i < 60; i += 3) {
      ASSERT_TRUE(coll_->Remove(doc_ids_[static_cast<size_t>(i)]).ok());
    }
  }

  void AddSecurity(const std::string& symbol, const std::string& yield,
                   const std::string& sector) {
    std::string yield_el =
        yield.empty() ? "<Yield/>" : "<Yield>" + yield + "</Yield>";
    doc_ids_.push_back(coll_->Add(Doc(
        "<Security><Symbol>" + symbol + "</Symbol>" + yield_el +
        "<SecInfo><StockInformation><Sector>" + sector +
        "</Sector></StockInformation></SecInfo></Security>")));
  }

  std::vector<xpath::IndexPattern> Patterns() const {
    return {Pattern("/Security/Symbol"),
            Pattern("/Security/Yield", xpath::ValueType::kNumeric),
            Pattern("/Security/SecInfo/*/Sector")};
  }

  DocumentStore store_;
  Collection* coll_ = nullptr;
  std::vector<xml::DocId> doc_ids_;
};

TEST_F(BulkBuildFixture, BuildBulkMatchesIncrementalBuild) {
  const CostConstants cc = DefaultCostConstants();
  for (const xpath::IndexPattern& pattern : Patterns()) {
    SCOPED_TRACE(pattern.path.ToString());
    PathValueIndex reference("r", "SDOC", pattern);
    reference.Build(*coll_);
    PathValueIndex bulk("b", "SDOC", pattern);
    bulk.BuildBulk(*coll_);
    EXPECT_GT(bulk.entry_count(), 0u);
    EXPECT_EQ(bulk.ContentDigest(), reference.ContentDigest());
    // The derived statistics must match too — BulkLoadKeys rebuilds them
    // from the key run rather than maintaining them per insert.
    const IndexStats a = bulk.ActualStats(cc);
    const IndexStats b = reference.ActualStats(cc);
    EXPECT_EQ(a.entry_count, b.entry_count);
    EXPECT_EQ(a.distinct_keys, b.distinct_keys);
    EXPECT_DOUBLE_EQ(a.avg_key_length, b.avg_key_length);
  }
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

TEST(XmlDirectoryTest, LoadsEachCollectionInNameOrder) {
  const std::string dir = testutil::ScratchDir("xml_two_collections");
  std::filesystem::create_directories(dir + "/B");
  std::filesystem::create_directories(dir + "/A");
  WriteText(dir + "/A/2.xml", "<r><v>2</v></r>");
  WriteText(dir + "/A/1.xml", "<r><v>1</v></r>");
  WriteText(dir + "/A/notes.txt", "not xml");
  WriteText(dir + "/B/1.xml", "<s/>");
  WriteText(dir + "/stray.xml", "<ignored/>");
  DocumentStore store;
  StatisticsCatalog stats;
  auto loaded = LoadXmlDirectory(dir, &store, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].name, "A");
  EXPECT_EQ((*loaded)[0].documents, 2u);
  EXPECT_EQ((*loaded)[1].name, "B");
  EXPECT_EQ((*loaded)[1].documents, 1u);
  auto a = store.GetCollection("A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->live_count(), 2u);
  EXPECT_TRUE(stats.Get("A").ok());
  EXPECT_TRUE(stats.Get("B").ok());
}

TEST(XmlDirectoryTest, RejectsEmptyCollectionDirectory) {
  const std::string dir = testutil::ScratchDir("xml_empty_collection");
  std::filesystem::create_directories(dir + "/A");
  std::filesystem::create_directories(dir + "/EMPTY");
  WriteText(dir + "/A/1.xml", "<r/>");
  DocumentStore store;
  StatisticsCatalog stats;
  auto loaded = LoadXmlDirectory(dir, &store, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("EMPTY"), std::string::npos);
}

TEST(XmlDirectoryTest, RejectsTreeWithoutCollections) {
  const std::string dir = testutil::ScratchDir("xml_no_collections");
  WriteText(dir + "/loose.xml", "<r/>");
  DocumentStore store;
  StatisticsCatalog stats;
  auto loaded = LoadXmlDirectory(dir, &store, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(XmlDirectoryTest, MissingDirectoryIsNotFound) {
  DocumentStore store;
  StatisticsCatalog stats;
  auto loaded = LoadXmlDirectory(testutil::ScratchRoot() + "/no_such_dir",
                                 &store, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(XmlDirectoryTest, MalformedFileIsNamedInTheError) {
  const std::string dir = testutil::ScratchDir("xml_malformed");
  std::filesystem::create_directories(dir + "/A");
  WriteText(dir + "/A/good.xml", "<r/>");
  WriteText(dir + "/A/broken.xml", "<r><unclosed></r>");
  DocumentStore store;
  StatisticsCatalog stats;
  auto loaded = LoadXmlDirectory(dir, &store, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("broken.xml"), std::string::npos)
      << loaded.status();
}

}  // namespace
}  // namespace xia::storage
