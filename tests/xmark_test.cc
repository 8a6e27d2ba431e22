#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "engine/normalizer.h"
#include "tpox/xmark.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xia::tpox {
namespace {

TEST(XmarkDataTest, ItemShape) {
  Random rng(1);
  const xml::Document doc = GenerateXmarkItem(17, &rng);
  auto id = xpath::EvaluateLinear(doc, *xpath::ParsePattern("/item/@id"));
  ASSERT_EQ(id.size(), 1u);
  EXPECT_EQ(doc.node(id[0]).value, "item17");
  EXPECT_EQ(
      xpath::EvaluateLinear(doc, *xpath::ParsePattern("/item/location"))
          .size(),
      1u);
  EXPECT_GE(xpath::EvaluateLinear(
                doc, *xpath::ParsePattern("/item/incategory/@category"))
                .size(),
            1u);
}

TEST(XmarkDataTest, AuctionShape) {
  Random rng(2);
  const xml::Document doc = GenerateXmarkAuction(3, 100, 50, &rng);
  EXPECT_EQ(xpath::EvaluateLinear(
                doc, *xpath::ParsePattern("/open_auction/current"))
                .size(),
            1u);
  EXPECT_EQ(xpath::EvaluateLinear(
                doc, *xpath::ParsePattern("/open_auction/itemref/@item"))
                .size(),
            1u);
}

TEST(XmarkDataTest, PersonShape) {
  Random rng(3);
  const xml::Document doc = GenerateXmarkPerson(11, &rng);
  EXPECT_EQ(xpath::EvaluateLinear(
                doc, *xpath::ParsePattern("/person/profile/@income"))
                .size(),
            1u);
}

class XmarkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    XmarkScale scale;
    scale.items = 150;
    scale.auctions = 150;
    scale.persons = 80;
    ASSERT_TRUE(BuildXmarkDatabase(scale, &store_, &stats_).ok());
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
};

TEST_F(XmarkFixture, DatabasePopulated) {
  for (const char* name : {kXmarkItemCollection, kXmarkAuctionCollection,
                           kXmarkPersonCollection}) {
    auto coll = store_.GetCollection(name);
    ASSERT_TRUE(coll.ok()) << name;
    EXPECT_GT((*coll)->live_count(), 0u);
    EXPECT_TRUE(stats_.Get(name).ok());
  }
}

TEST_F(XmarkFixture, QueriesParseAndNormalize) {
  auto workload = XmarkQueries();
  ASSERT_TRUE(workload.ok()) << workload.status();
  ASSERT_EQ(workload->size(), 8u);
  for (const auto& stmt : *workload) {
    auto norm = engine::Normalize(stmt);
    ASSERT_TRUE(norm.ok()) << stmt.label << ": " << norm.status();
  }
}

TEST_F(XmarkFixture, AdvisorWorksOnSecondSchema) {
  auto workload = XmarkQueries();
  ASSERT_TRUE(workload.ok());
  advisor::IndexAdvisor advisor(&store_, &stats_);
  advisor::AdvisorOptions options;
  options.algorithm = advisor::SearchAlgorithm::kTopDownFull;
  options.disk_budget_bytes = 2e6;
  auto rec = advisor.Recommend(*workload, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GE(rec->basic_candidates, 6u);
  EXPECT_GT(rec->est_speedup, 1.0);
  EXPECT_FALSE(rec->indexes.empty());
}

TEST_F(XmarkFixture, AttributeHeavyCandidatesEnumerated) {
  auto workload = XmarkQueries();
  ASSERT_TRUE(workload.ok());
  advisor::IndexAdvisor advisor(&store_, &stats_);
  auto set = advisor.BuildCandidates(*workload, /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  bool has_attribute_candidate = false;
  for (const auto& c : set->candidates) {
    if (!c.pattern.path.empty() &&
        c.pattern.path.last().name_test.str().rfind("@", 0) == 0) {
      has_attribute_candidate = true;
    }
  }
  EXPECT_TRUE(has_attribute_candidate);
}

}  // namespace
}  // namespace xia::tpox
