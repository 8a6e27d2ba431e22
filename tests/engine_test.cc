#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "engine/executor.h"
#include "engine/normalizer.h"
#include "engine/query_parser.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xia::engine {
namespace {

Statement Parse(const std::string& text) {
  auto stmt = ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

TEST(QueryParserTest, FlworBasics) {
  const Statement stmt = Parse(
      "for $sec in SECURITY('SDOC')/Security "
      "where $sec/Symbol = \"BCIIPRC\" return $sec");
  ASSERT_TRUE(stmt.is_query());
  const QuerySpec& q = stmt.query();
  EXPECT_EQ(q.collection, "SDOC");
  EXPECT_EQ(q.variable, "sec");
  EXPECT_EQ(q.binding.ToString(), "/Security");
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].relative_steps[0].name_test, "Symbol");
  EXPECT_EQ(q.where[0].op, xpath::CompareOp::kEq);
  EXPECT_EQ(q.where[0].literal.string_value, "BCIIPRC");
  ASSERT_EQ(q.returns.size(), 1u);
  EXPECT_TRUE(q.returns[0].empty());  // bare $sec
}

TEST(QueryParserTest, PaperQ2) {
  const Statement stmt = Parse(
      "for $sec in SECURITY('SDOC')/Security[Yield>4.5] "
      "where $sec/SecInfo/*/Sector= \"Energy\" "
      "return <Security>{$sec/Name}</Security>");
  ASSERT_TRUE(stmt.is_query());
  const QuerySpec& q = stmt.query();
  EXPECT_EQ(q.binding.ToString(), "/Security[Yield > 4.5]");
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].relative_steps.size(), 3u);
  ASSERT_EQ(q.returns.size(), 1u);
  ASSERT_EQ(q.returns[0].size(), 1u);
  EXPECT_EQ(q.returns[0][0].name_test, "Name");
}

TEST(QueryParserTest, MultipleWhereConjunctsAndReturns) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security "
      "where $s/PE > 25 and $s/SecurityType = \"Stock\" "
      "return $s/Symbol, $s/Name");
  const QuerySpec& q = stmt.query();
  EXPECT_EQ(q.where.size(), 2u);
  EXPECT_EQ(q.where[0].op, xpath::CompareOp::kGt);
  EXPECT_EQ(q.where[0].literal.type, xpath::ValueType::kNumeric);
  EXPECT_EQ(q.returns.size(), 2u);
}

TEST(QueryParserTest, AttributePaths) {
  const Statement stmt = Parse(
      "for $o in ORDER('ODOC')/FIXML/Order "
      "where $o/@ID = \"100123\" return $o/@ID");
  const QuerySpec& q = stmt.query();
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].relative_steps[0].name_test, "@ID");
  ASSERT_EQ(q.returns.size(), 1u);
  EXPECT_EQ(q.returns[0][0].name_test, "@ID");
}

TEST(QueryParserTest, InsertStatement) {
  const Statement stmt =
      Parse("insert into ODOC <FIXML><Order ID=\"1\"/></FIXML>");
  ASSERT_TRUE(stmt.is_insert());
  EXPECT_EQ(stmt.insert_spec().collection, "ODOC");
  EXPECT_EQ(stmt.insert_spec().document_text,
            "<FIXML><Order ID=\"1\"/></FIXML>");
}

TEST(QueryParserTest, DeleteStatement) {
  const Statement stmt =
      Parse("delete from ODOC where /FIXML/Order[@ID = \"100042\"]");
  ASSERT_TRUE(stmt.is_delete());
  EXPECT_EQ(stmt.delete_spec().collection, "ODOC");
  EXPECT_EQ(stmt.delete_spec().match.ToString(),
            "/FIXML/Order[@ID = \"100042\"]");
}

TEST(QueryParserTest, UpdateStatement) {
  const Statement stmt = Parse(
      "update SDOC set /Security/Yield = 5.5 "
      "where /Security[Symbol = \"SYM3\"]");
  ASSERT_TRUE(stmt.is_update());
  EXPECT_TRUE(stmt.is_modification());
  const UpdateSpec& u = stmt.update_spec();
  EXPECT_EQ(u.collection, "SDOC");
  EXPECT_EQ(u.target.ToString(), "/Security/Yield");
  EXPECT_EQ(u.new_value.type, xpath::ValueType::kNumeric);
  EXPECT_DOUBLE_EQ(u.new_value.numeric_value, 5.5);
  EXPECT_EQ(u.match.ToString(), "/Security[Symbol = \"SYM3\"]");
}

TEST(QueryParserTest, UpdateStringValue) {
  const Statement stmt = Parse(
      "update SDOC set /Security/SecInfo/*/Sector = \"Utilities\" "
      "where /Security[Yield > 9]");
  ASSERT_TRUE(stmt.is_update());
  EXPECT_EQ(stmt.update_spec().new_value.string_value, "Utilities");
}

TEST(QueryParserTest, UpdateErrors) {
  EXPECT_FALSE(ParseStatement("update SDOC").ok());
  EXPECT_FALSE(ParseStatement("update SDOC set /a/b").ok());
  EXPECT_FALSE(ParseStatement("update SDOC set /a/b = 1").ok());
  EXPECT_FALSE(
      ParseStatement("update SDOC set /a[b=1] = 2 where /a").ok());
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("select * from t").ok());
  EXPECT_FALSE(ParseStatement("for $x in SDOC/Security return $x").ok());
  EXPECT_FALSE(
      ParseStatement("for $x in c('S')/a where $y/b = 1 return $x").ok());
  EXPECT_FALSE(ParseStatement("insert into ODOC").ok());
  EXPECT_FALSE(ParseStatement("delete from ODOC").ok());
  EXPECT_FALSE(
      ParseStatement("for $x in c('S')/a where $x/b = 1").ok());
}

TEST(QueryParserTest, CaseInsensitiveKeywords) {
  const Statement stmt = Parse(
      "FOR $x IN collection('SDOC')/Security WHERE $x/PE > 1 RETURN $x");
  EXPECT_TRUE(stmt.is_query());
}

TEST(NormalizerTest, MergesWhereIntoPathPredicates) {
  const Statement stmt = Parse(
      "for $sec in SECURITY('SDOC')/Security[Yield>4.5] "
      "where $sec/SecInfo/*/Sector = \"Energy\" return $sec/Name");
  auto norm = Normalize(stmt);
  ASSERT_TRUE(norm.ok()) << norm.status();
  EXPECT_EQ(norm->collection, "SDOC");
  // The where conjunct is now a predicate on the last binding step.
  EXPECT_EQ(norm->path.ToString(),
            "/Security[Yield > 4.5][SecInfo/*/Sector = \"Energy\"]");
  ASSERT_EQ(norm->returns.size(), 1u);
}

TEST(NormalizerTest, RejectsNonQueries) {
  EXPECT_FALSE(Normalize(Parse("insert into X <a/>")).ok());
  EXPECT_FALSE(
      NormalizeDeleteMatch(Parse("for $x in c('S')/a return $x")).ok());
  EXPECT_TRUE(
      NormalizeDeleteMatch(Parse("delete from S where /a[b = 1]")).ok());
}

TEST(StatementTest, ToTextRoundTripsThroughParser) {
  for (const char* text :
       {"for $s in collection('SDOC')/Security where $s/Symbol = \"X\" "
        "return $s",
        "for $s in collection('SDOC')/Security[Yield > 4.5] return $s/Name",
        "delete from ODOC where /FIXML/Order[@ID = \"1\"]"}) {
    Statement stmt = Parse(text);
    stmt.text.clear();  // force regeneration
    const std::string regenerated = ToText(stmt);
    auto reparsed = ParseStatement(regenerated);
    ASSERT_TRUE(reparsed.ok()) << regenerated << ": " << reparsed.status();
  }
}

// ParseStatement(ToText(s)) must give back s's body: the text a statement
// regenerates (for the WAL, workload files, the wire) is what every
// reader of it gets. Inserts regenerate a placeholder and are skipped.
void ExpectBodyRoundTrips(Statement stmt) {
  if (stmt.is_insert()) return;
  stmt.text.clear();  // force regeneration
  if (stmt.is_query() && stmt.query().returns.empty()) {
    // Generated queries leave a bare "return $x" implicit; the parser
    // spells it as one empty return path. Both return the match itself.
    std::get<QuerySpec>(stmt.body).returns.emplace_back();
  }
  const std::string text = ToText(stmt);
  auto reparsed = ParseStatement(text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status();
  EXPECT_TRUE(SameStatementBody(stmt, *reparsed)) << text;
}

TEST(StatementTest, TpoxWorkloadRoundTripsThroughText) {
  auto queries = tpox::TpoxQueries();
  ASSERT_TRUE(queries.ok());
  Random rng(7);
  auto mix = tpox::TpoxTransactionMix(20, 100, 200, 50, &rng);
  ASSERT_TRUE(mix.ok());
  for (const Workload* w : {&*queries, &*mix}) {
    for (const Statement& stmt : *w) ExpectBodyRoundTrips(stmt);
  }
}

TEST(StatementTest, SyntheticStatementsRoundTripThroughText) {
  // Synthetic predicates draw numeric literals uniformly from observed
  // ranges, so most need all 17 significant digits.
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  tpox::TpoxScale scale;
  scale.security_docs = 40;
  scale.order_docs = 40;
  scale.custacc_docs = 20;
  ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store, &stats).ok());
  size_t checked = 0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Random rng(seed);
    auto workload = tpox::GenerateSyntheticWorkload(
        stats, {tpox::kSecurityCollection, tpox::kOrderCollection,
                tpox::kCustAccCollection},
        250, &rng);
    ASSERT_TRUE(workload.ok()) << workload.status();
    for (const Statement& stmt : *workload) {
      ExpectBodyRoundTrips(stmt);
      ++checked;
    }
  }
  EXPECT_GE(checked, 1000u);
}

TEST(StatementTest, NumericLiteralsRoundTripThroughText) {
  Random rng(11);
  std::vector<double> values = {
      0.0, -0.0, 3203350, 12345.67, -12345.67, 1e-300, -1e-300, 1e300,
      -1e300, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 999999.5, 1e6, 0.0001, 1e-5};
  for (int i = 0; i < 2000; ++i) {
    // Any finite bit pattern: subnormals, huge and tiny exponents, both
    // signs.
    double v = std::bit_cast<double>(rng.Next());
    if (std::isfinite(v)) values.push_back(v);
    values.push_back(rng.UniformDouble(-1e7, 1e7));
  }
  for (const double v : values) {
    const std::string lit = xpath::Literal::Number(v).ToString();
    for (const std::string& text :
         {"for $s in collection('SDOC')/Security[Yield > " + lit +
              "] where $s/PE <= " + lit + " return $s",
          "update SDOC set /Security/Price/LastTrade = " + lit +
              " where /Security[Symbol = \"S\"]",
          "delete from ODOC where /FIXML/Order[OrdQty/@Qty != " + lit +
              "]"}) {
      auto stmt = ParseStatement(text);
      ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.status();
      ExpectBodyRoundTrips(*stmt);
    }
    auto stmt = ParseStatement(
        "for $s in collection('SDOC')/Security where $s/PE = " + lit +
        " return $s");
    ASSERT_TRUE(stmt.ok()) << lit;
    const double parsed = stmt->query().where[0].literal.numeric_value;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed), std::bit_cast<uint64_t>(v))
        << lit;
  }
}

TEST(WorkloadTextTest, ParsesAnnotatedStatements) {
  const char* text = R"(
# comment line
@freq=20 @label=hot
for $s in collection('SDOC')/Security
  where $s/Symbol = "A#B" return $s;

for $s in collection('SDOC')/Security[Yield > 1] return $s;
@freq=2
delete from ODOC where /FIXML/Order[@ID = "1"];
)";
  auto workload = ParseWorkloadText(text);
  ASSERT_TRUE(workload.ok()) << workload.status();
  ASSERT_EQ(workload->size(), 3u);
  EXPECT_DOUBLE_EQ((*workload)[0].frequency, 20.0);
  EXPECT_EQ((*workload)[0].label, "hot");
  // '#' inside a string literal is not a comment.
  EXPECT_EQ((*workload)[0].query().where[0].literal.string_value, "A#B");
  EXPECT_DOUBLE_EQ((*workload)[1].frequency, 1.0);
  EXPECT_EQ((*workload)[1].label, "stmt-2");
  EXPECT_TRUE((*workload)[2].is_delete());
  EXPECT_DOUBLE_EQ((*workload)[2].frequency, 2.0);
}

TEST(WorkloadTextTest, TrailingStatementWithoutSemicolon) {
  auto workload = ParseWorkloadText(
      "for $s in collection('S')/a[b > 1] return $s");
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload->size(), 1u);
}

TEST(WorkloadTextTest, Errors) {
  EXPECT_FALSE(ParseWorkloadText("").ok());
  EXPECT_FALSE(ParseWorkloadText("# only comments\n").ok());
  EXPECT_FALSE(ParseWorkloadText("@freq=bad\nfor $s in c('S')/a return $s").ok());
  EXPECT_FALSE(ParseWorkloadText("@nope=1\nfor $s in c('S')/a return $s").ok());
  EXPECT_FALSE(ParseWorkloadText("not a statement;").ok());
}

TEST(CompactWorkloadTest, MergesDuplicatesSummingFrequency) {
  Workload w;
  w.push_back(Parse("for $s in c('S')/a[b = 1] return $s"));
  w.push_back(Parse("for $s in c('S')/a[b = 2] return $s"));
  w.push_back(Parse("for $s in c('S')/a[b = 1] return $s"));
  w[0].frequency = 3;
  w[2].frequency = 4;
  const Workload compact = CompactWorkload(w);
  ASSERT_EQ(compact.size(), 2u);
  EXPECT_DOUBLE_EQ(compact[0].frequency, 7.0);
  EXPECT_DOUBLE_EQ(compact[1].frequency, 1.0);
}

TEST(CompactWorkloadTest, DistinguishesKindsAndLiterals) {
  Workload w;
  w.push_back(Parse("delete from S where /a[b = 1]"));
  w.push_back(Parse("update S set /a/b = 1 where /a[b = 1]"));
  w.push_back(Parse("insert into S <a/>"));
  w.push_back(Parse("insert into S <a/>"));
  w.push_back(Parse("insert into S <b/>"));
  const Workload compact = CompactWorkload(w);
  EXPECT_EQ(compact.size(), 4u);
}

TEST(CompactWorkloadTest, LabelsDoNotAffectIdentity) {
  auto a = ParseStatement("for $s in c('S')/a[b = 1] return $s", 1, "x");
  auto b = ParseStatement("for $s in c('S')/a[b = 1] return $s", 1, "y");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameStatementBody(*a, *b));
  EXPECT_EQ(CompactWorkload({*a, *b}).size(), 1u);
}

// -------------------------------------------------------------------------
// Executor tests.

class ExecutorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto coll = store_.CreateCollection("SDOC");
    ASSERT_TRUE(coll.ok());
    for (int i = 0; i < 200; ++i) {
      const std::string sector = (i % 4 == 0) ? "Energy" : "Tech";
      const std::string doc =
          "<Security><Symbol>SYM" + std::to_string(i) + "</Symbol><Yield>" +
          std::to_string(i % 10) +
          "</Yield><SecInfo><StockInformation><Sector>" + sector +
          "</Sector></StockInformation></SecInfo><Name>N" +
          std::to_string(i) + "</Name></Security>";
      auto parsed = xml::Parse(doc);
      ASSERT_TRUE(parsed.ok());
      (*coll)->Add(std::move(*parsed));
    }
    stats_.RunStats(**coll);
    catalog_ = std::make_unique<storage::Catalog>(&store_, &stats_);
    optimizer_ = std::make_unique<optimizer::Optimizer>(&store_,
                                                        catalog_.get(),
                                                        &stats_);
    executor_ = std::make_unique<Executor>(&store_, catalog_.get());
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorFixture, CollectionScanQuery) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security where $s/Symbol = \"SYM7\" "
      "return $s");
  auto plan = optimizer_->OptimizeWithoutIndexes(stmt);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, optimizer::Plan::Kind::kCollectionScan);
  auto result = executor_->Execute(stmt, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);
  EXPECT_EQ(result->docs_examined, 200u);
}

TEST_F(ExecutorFixture, IndexScanMatchesScanResults) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "sym", "SDOC",
                          {*xpath::ParsePattern("/Security/Symbol"),
                           xpath::ValueType::kString})
                  .ok());
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security where $s/Symbol = \"SYM7\" "
      "return $s");
  auto plan = optimizer_->Optimize(stmt);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->kind, optimizer::Plan::Kind::kIndexScan);
  auto result = executor_->Execute(stmt, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);
  EXPECT_EQ(result->docs_examined, 1u);  // index pinpointed the document
  EXPECT_GE(result->index_entries_scanned, 1u);
}

TEST_F(ExecutorFixture, ReturnExpressionsCounted) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security[Yield > 8] "
      "return $s/Name, $s/Symbol");
  auto plan = optimizer_->OptimizeWithoutIndexes(stmt);
  ASSERT_TRUE(plan.ok());
  auto result = executor_->Execute(stmt, *plan);
  ASSERT_TRUE(result.ok());
  // Yield==9 for i % 10 == 9: twenty docs x two return paths.
  EXPECT_EQ(result->result_count, 40u);
}

TEST_F(ExecutorFixture, WildcardPredicateQuery) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security "
      "where $s/SecInfo/*/Sector = \"Energy\" return $s");
  auto plan = optimizer_->OptimizeWithoutIndexes(stmt);
  ASSERT_TRUE(plan.ok());
  auto result = executor_->Execute(stmt, *plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_count, 50u);  // i % 4 == 0
}

TEST_F(ExecutorFixture, InsertThenQuery) {
  const Statement ins = Parse(
      "insert into SDOC <Security><Symbol>FRESH</Symbol></Security>");
  auto plan = optimizer_->Optimize(ins);
  ASSERT_TRUE(plan.ok());
  auto result = executor_->Execute(ins, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);

  const Statement query = Parse(
      "for $s in collection('SDOC')/Security where $s/Symbol = \"FRESH\" "
      "return $s");
  auto qplan = optimizer_->OptimizeWithoutIndexes(query);
  ASSERT_TRUE(qplan.ok());
  auto qresult = executor_->Execute(query, *qplan);
  ASSERT_TRUE(qresult.ok());
  EXPECT_EQ(qresult->result_count, 1u);
}

TEST_F(ExecutorFixture, InsertMaintainsIndexes) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "sym", "SDOC",
                          {*xpath::ParsePattern("/Security/Symbol"),
                           xpath::ValueType::kString})
                  .ok());
  const Statement ins = Parse(
      "insert into SDOC <Security><Symbol>FRESH</Symbol></Security>");
  auto plan = optimizer_->Optimize(ins);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(executor_->Execute(ins, *plan).ok());
  auto physical = catalog_->GetPhysical("sym");
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ((*physical)->entry_count(), 201u);
}

TEST_F(ExecutorFixture, DeleteRemovesAndMaintains) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "sym", "SDOC",
                          {*xpath::ParsePattern("/Security/Symbol"),
                           xpath::ValueType::kString})
                  .ok());
  const Statement del =
      Parse("delete from SDOC where /Security[Symbol = \"SYM3\"]");
  auto plan = optimizer_->Optimize(del);
  ASSERT_TRUE(plan.ok());
  auto result = executor_->Execute(del, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);

  auto coll = store_.GetCollection("SDOC");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->live_count(), 199u);
  auto physical = catalog_->GetPhysical("sym");
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ((*physical)->entry_count(), 199u);
}

TEST_F(ExecutorFixture, VirtualIndexPlansAreNotExecutable) {
  ASSERT_TRUE(catalog_->CreateVirtualIndex(
                          "vsym", "SDOC",
                          {*xpath::ParsePattern("/Security/Symbol"),
                           xpath::ValueType::kString})
                  .ok());
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security where $s/Symbol = \"SYM7\" "
      "return $s");
  auto plan = optimizer_->Optimize(stmt);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->uses_virtual_index);
  auto result = executor_->Execute(stmt, *plan);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorFixture, IndexAndIntersectsDocuments) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "sector", "SDOC",
                          {*xpath::ParsePattern("/Security/SecInfo/*/Sector"),
                           xpath::ValueType::kString})
                  .ok());
  ASSERT_TRUE(catalog_->CreateIndex(
                          "yield", "SDOC",
                          {*xpath::ParsePattern("/Security/Yield"),
                           xpath::ValueType::kNumeric})
                  .ok());
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security[Yield >= 8] "
      "where $s/SecInfo/*/Sector = \"Energy\" return $s");
  // Force an AND plan by construction.
  auto norm = Normalize(stmt);
  ASSERT_TRUE(norm.ok());
  auto preds = optimizer::ExtractIndexablePredicates(*norm);
  ASSERT_EQ(preds.size(), 2u);
  optimizer::Plan plan;
  plan.kind = optimizer::Plan::Kind::kIndexAnd;
  for (const auto& pred : preds) {
    optimizer::PlanLeg leg;
    leg.index_name =
        pred.type == xpath::ValueType::kNumeric ? "yield" : "sector";
    leg.predicate = pred;
    plan.legs.push_back(leg);
  }
  auto result = executor_->Execute(stmt, plan);
  ASSERT_TRUE(result.ok()) << result.status();
  // Energy: i % 4 == 0; Yield >= 8: i % 10 in {8, 9}. Intersection:
  // i % 20 == 8, i.e. 10 of 200 documents.
  EXPECT_EQ(result->result_count, 10u);
}

TEST_F(ExecutorFixture, UpdateChangesValuesAndMaintainsIndexes) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "yield", "SDOC",
                          {*xpath::ParsePattern("/Security/Yield"),
                           xpath::ValueType::kNumeric})
                  .ok());
  const Statement upd = Parse(
      "update SDOC set /Security/Yield = 42 "
      "where /Security[Symbol = \"SYM7\"]");
  auto plan = optimizer_->Optimize(upd);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, optimizer::Plan::Kind::kUpdate);
  auto result = executor_->Execute(upd, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);  // one Yield node modified

  // The new value is queryable, and through the maintained index.
  const Statement probe = Parse(
      "for $s in collection('SDOC')/Security[Yield = 42] return $s/Symbol");
  auto probe_plan = optimizer_->Optimize(probe);
  ASSERT_TRUE(probe_plan.ok());
  auto probe_result = executor_->Execute(probe, *probe_plan);
  ASSERT_TRUE(probe_result.ok());
  EXPECT_EQ(probe_result->result_count, 1u);

  auto physical = catalog_->GetPhysical("yield");
  ASSERT_TRUE(physical.ok());
  auto hits = (*physical)->Lookup(xpath::CompareOp::kEq,
                                  xpath::Literal::Number(42));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->rids.size(), 1u);
  EXPECT_EQ((*physical)->entry_count(), 200u);  // still one entry per doc
}

TEST_F(ExecutorFixture, UpdateViaIndexPlan) {
  ASSERT_TRUE(catalog_->CreateIndex(
                          "sym", "SDOC",
                          {*xpath::ParsePattern("/Security/Symbol"),
                           xpath::ValueType::kString})
                  .ok());
  const Statement upd = Parse(
      "update SDOC set /Security/Name = \"Renamed\" "
      "where /Security[Symbol = \"SYM9\"]");
  auto plan = optimizer_->Optimize(upd);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->legs.empty());  // match found through the index
  auto result = executor_->Execute(upd, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);
  EXPECT_LE(result->docs_examined, 2u);
}

TEST_F(ExecutorFixture, UpdateOfNoMatchingDocumentIsNoop) {
  const Statement upd = Parse(
      "update SDOC set /Security/Name = \"X\" "
      "where /Security[Symbol = \"NOPE\"]");
  auto plan = optimizer_->OptimizeWithoutIndexes(upd);
  ASSERT_TRUE(plan.ok());
  auto result = executor_->Execute(upd, *plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_count, 0u);
}

TEST_F(ExecutorFixture, MaterializedRows) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security[Yield > 8] "
      "return $s/Symbol");
  auto plan = optimizer_->OptimizeWithoutIndexes(stmt);
  ASSERT_TRUE(plan.ok());

  // Counting-only execution materializes nothing.
  auto counted = executor_->Execute(stmt, *plan);
  ASSERT_TRUE(counted.ok());
  EXPECT_TRUE(counted->rows.empty());
  EXPECT_EQ(counted->result_count, 20u);  // i % 10 == 9

  ExecOptions options;
  options.materialize_rows = true;
  options.max_rows = 5;
  auto rows = executor_->Execute(stmt, *plan, options);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->result_count, 20u);  // counting continues past the cap
  ASSERT_EQ(rows->rows.size(), 5u);
  EXPECT_EQ(rows->rows[0], "Symbol=SYM9");
}

TEST_F(ExecutorFixture, MaterializedSubtreeRowsAreXml) {
  const Statement stmt = Parse(
      "for $s in collection('SDOC')/Security where $s/Symbol = \"SYM7\" "
      "return $s");
  auto plan = optimizer_->OptimizeWithoutIndexes(stmt);
  ASSERT_TRUE(plan.ok());
  ExecOptions options;
  options.materialize_rows = true;
  auto result = executor_->Execute(stmt, *plan, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_NE(result->rows[0].find("<Security>"), std::string::npos);
  EXPECT_NE(result->rows[0].find("<Symbol>SYM7</Symbol>"),
            std::string::npos);
}

// A return path is walked, not evaluated as a node set: a target reached
// along two paths counts (and materializes) twice, in walk order.
TEST(ExecutorReturnTest, DescendantReturnPathsCountEveryPath) {
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  auto coll = store.CreateCollection("N");
  ASSERT_TRUE(coll.ok());
  auto doc = xml::Parse("<r><a><a><b>1</b></a><b>2</b></a></r>");
  ASSERT_TRUE(doc.ok());
  (*coll)->Add(std::move(*doc));
  storage::Catalog catalog(&store, &stats);
  Executor executor(&store, &catalog);
  const Statement stmt =
      Parse("for $x in collection('N')/r return $x//a//b, $x");
  ExecOptions options;
  options.materialize_rows = true;
  auto result = executor.Execute(stmt, optimizer::Plan(), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 4u);
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[0], "b=1");
  EXPECT_EQ(result->rows[1], "b=2");
  EXPECT_EQ(result->rows[2], "b=1");
  EXPECT_EQ(result->rows[3].rfind("<r>", 0), 0u) << result->rows[3];
}

}  // namespace
}  // namespace xia::engine
