#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "reference_evaluator.h"
#include "tpox/tpox_data.h"
#include "util/random.h"
#include "util/string_util.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xia::xpath {
namespace {

xml::Document Doc(const char* text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(*doc);
}

const char* kSecurity = R"(
<Security>
  <Symbol>IBM</Symbol>
  <Yield>4.8</Yield>
  <SecInfo>
    <StockInformation>
      <Sector>Energy</Sector>
      <Industry>Oil</Industry>
    </StockInformation>
  </SecInfo>
  <Price><LastTrade>95.5</LastTrade><Open>94.0</Open></Price>
</Security>)";

TEST(EvaluateLinearTest, ChildPath) {
  auto doc = Doc(kSecurity);
  auto nodes = EvaluateLinear(doc, *ParsePattern("/Security/Symbol"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc.node(nodes[0]).value, "IBM");
}

TEST(EvaluateLinearTest, WildcardStep) {
  auto doc = Doc(kSecurity);
  auto nodes =
      EvaluateLinear(doc, *ParsePattern("/Security/SecInfo/*/Sector"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc.node(nodes[0]).value, "Energy");
}

TEST(EvaluateLinearTest, DescendantAxis) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(EvaluateLinear(doc, *ParsePattern("//Sector")).size(), 1u);
  EXPECT_EQ(EvaluateLinear(doc, *ParsePattern("/Security//Sector")).size(),
            1u);
  // Root itself reachable by //Security.
  auto roots = EvaluateLinear(doc, *ParsePattern("//Security"));
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0], doc.root());
}

TEST(EvaluateLinearTest, UniversalSelectsAllElements) {
  auto doc = Doc("<a><b>1</b><c><d>2</d></c></a>");
  EXPECT_EQ(EvaluateLinear(doc, *ParsePattern("//*")).size(), doc.size());
}

TEST(EvaluateLinearTest, NoMatch) {
  auto doc = Doc(kSecurity);
  EXPECT_TRUE(EvaluateLinear(doc, *ParsePattern("/Security/Missing")).empty());
  EXPECT_TRUE(EvaluateLinear(doc, *ParsePattern("/Wrong/Symbol")).empty());
}

TEST(EvaluateLinearTest, NoDuplicatesFromOverlappingDescendants) {
  auto doc = Doc("<a><a><a><b>x</b></a></a></a>");
  auto nodes = EvaluateLinear(doc, *ParsePattern("//a//b"));
  ASSERT_EQ(nodes.size(), 1u);
}

TEST(EvaluateLinearTest, AttributeSelection) {
  auto doc = Doc("<FIXML><Order ID=\"103\" Side=\"1\"/></FIXML>");
  auto nodes = EvaluateLinear(doc, *ParsePattern("/FIXML/Order/@ID"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc.node(nodes[0]).value, "103");
  // Wildcard does not match attributes? In this model '@ID' is a label and
  // '*' matches any label, attributes included.
  auto all = EvaluateLinear(doc, *ParsePattern("/FIXML/Order/*"));
  EXPECT_EQ(all.size(), 2u);
}

TEST(CompareValueTest, NumericComparisons) {
  const Literal four_five = Literal::Number(4.5);
  EXPECT_TRUE(CompareValue("4.8", CompareOp::kGt, four_five));
  EXPECT_FALSE(CompareValue("4.2", CompareOp::kGt, four_five));
  EXPECT_TRUE(CompareValue("4.5", CompareOp::kGe, four_five));
  EXPECT_TRUE(CompareValue("4.5", CompareOp::kEq, four_five));
  EXPECT_TRUE(CompareValue("4.4", CompareOp::kNe, four_five));
  EXPECT_TRUE(CompareValue("4.4", CompareOp::kLt, four_five));
  EXPECT_TRUE(CompareValue("4.5", CompareOp::kLe, four_five));
}

TEST(CompareValueTest, NonNumericNodeNeverSatisfiesNumeric) {
  const Literal lit = Literal::Number(4.5);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(CompareValue("IBM", op, lit));
  }
}

TEST(CompareValueTest, StringComparisons) {
  const Literal energy = Literal::String("Energy");
  EXPECT_TRUE(CompareValue("Energy", CompareOp::kEq, energy));
  EXPECT_FALSE(CompareValue("Tech", CompareOp::kEq, energy));
  EXPECT_TRUE(CompareValue("Tech", CompareOp::kNe, energy));
  EXPECT_TRUE(CompareValue("Alpha", CompareOp::kLt, energy));
  EXPECT_TRUE(CompareValue("Tech", CompareOp::kGt, energy));
}

TEST(EvaluateTest, InlinePredicate) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(Evaluate(doc, *ParseQuery("/Security[Yield > 4.5]")).size(), 1u);
  EXPECT_TRUE(Evaluate(doc, *ParseQuery("/Security[Yield > 5.0]")).empty());
}

TEST(EvaluateTest, RelativePathPredicate) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(
      Evaluate(doc, *ParseQuery("/Security[SecInfo/*/Sector = \"Energy\"]"))
          .size(),
      1u);
  EXPECT_TRUE(
      Evaluate(doc, *ParseQuery("/Security[SecInfo/*/Sector = \"Tech\"]"))
          .empty());
}

TEST(EvaluateTest, PredicateAtInnerStep) {
  auto doc = Doc(kSecurity);
  auto nodes =
      Evaluate(doc, *ParseQuery("/Security[Symbol = \"IBM\"]/Price/Open"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc.node(nodes[0]).value, "94.0");
  EXPECT_TRUE(
      Evaluate(doc, *ParseQuery("/Security[Symbol = \"MSFT\"]/Price/Open"))
          .empty());
}

TEST(EvaluateTest, ExistencePredicate) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(Evaluate(doc, *ParseQuery("/Security[Price]")).size(), 1u);
  EXPECT_TRUE(Evaluate(doc, *ParseQuery("/Security[Dividend]")).empty());
}

TEST(EvaluateTest, ExistentialSemanticsOverMultipleNodes) {
  auto doc = Doc(
      "<r><item><price>5</price></item><item><price>50</price></item></r>");
  // The r node qualifies if ANY price > 20.
  EXPECT_EQ(Evaluate(doc, *ParseQuery("/r[item/price > 20]")).size(), 1u);
  EXPECT_TRUE(Evaluate(doc, *ParseQuery("/r[item/price > 100]")).empty());
  // Per-item filtering distinguishes the two.
  EXPECT_EQ(Evaluate(doc, *ParseQuery("/r/item[price > 20]")).size(), 1u);
}

TEST(EvaluateTest, DescendantPredicatePath) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(Evaluate(doc, *ParseQuery("/Security[.//Sector = \"Energy\"]"))
                .size(),
            1u);
}

TEST(EvaluateTest, SelfValuePredicate) {
  auto doc = Doc(kSecurity);
  auto nodes = Evaluate(doc, *ParseQuery("/Security/Yield[. >= 4.8]"));
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_TRUE(Evaluate(doc, *ParseQuery("/Security/Yield[. > 4.8]")).empty());
}

TEST(EvaluateTest, MultiplePredicatesAreConjunctive) {
  auto doc = Doc(kSecurity);
  EXPECT_EQ(
      Evaluate(doc,
               *ParseQuery("/Security[Yield > 4][Symbol = \"IBM\"]")).size(),
      1u);
  EXPECT_TRUE(
      Evaluate(doc, *ParseQuery("/Security[Yield > 4][Symbol = \"X\"]"))
          .empty());
}

TEST(ExistsTest, Basic) {
  auto doc = Doc(kSecurity);
  EXPECT_TRUE(Exists(doc, *ParseQuery("//Sector")));
  EXPECT_FALSE(Exists(doc, *ParseQuery("//Dividend")));
}

TEST(EvaluateTest, EmptyDocument) {
  xml::Document doc;
  EXPECT_TRUE(Evaluate(doc, *ParseQuery("/a")).empty());
  EXPECT_TRUE(EvaluateLinear(doc, *ParsePattern("//*")).empty());
}


// ---------------------------------------------------------------------------
// Differential checks: Evaluate, EvaluateInto, Exists and ParseDouble
// against the reference versions they replaced (reference_evaluator.h).

// Node values that hit ParseDouble's fast path and each of its fallbacks.
std::vector<std::string> ValuePool(Random* rng) {
  std::vector<std::string> values = {
      " 7 ",   "+5",      "0x1A",      "1e3",  "inf",  "nan",   "",
      "abc",   "7",       "-0",        "5",    "26",   "1000",  "-inf",
      "NaN",   "INF",     "infinity",  "1e",   ".5",   "5.",    "1e999",
      "-1e999", "1e-400", "4.9e-324",  "0x1p3", "--1", "nan(7)", "\t12.5e-3\n",
      "1 2",   "1,5",     "Energy",    "e5",   "+.5",  "-.e1",  "0X1a",
  };
  for (int i = 0; i < 12; ++i) {
    const double d =
        (rng->NextDouble() - 0.5) * std::pow(10.0, rng->UniformInt(-8, 8));
    values.push_back(StringPrintf("%.17g", d));
  }
  return values;
}

Literal RandomLiteral(Random* rng, const std::vector<std::string>& values) {
  if (rng->Bernoulli(0.5)) return Literal::String(rng->Pick(values));
  static const std::vector<double> kNumbers = {
      7,    5,   26,  1000, 0, -0.0, 0.5, 1e3, 26.0,
      -1.5, 1e9, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  double v = rng->Pick(kNumbers);
  if (rng->Bernoulli(0.3)) {
    reference::ParseDouble(rng->Pick(values), &v);  // keeps v if rejected
  }
  return Literal::Number(v);
}

Step RandomStep(Random* rng, const std::vector<std::string>& names) {
  return Step(rng->Bernoulli(0.35) ? Axis::kDescendant : Axis::kChild,
              rng->Pick(names));
}

Predicate RandomPredicate(Random* rng, const std::vector<std::string>& names,
                          const std::vector<std::string>& values) {
  Predicate pred;
  const size_t len = rng->Uniform(4);  // 0: a self-value predicate [. op v]
  for (size_t i = 0; i < len; ++i) {
    pred.relative_steps.push_back(RandomStep(rng, names));
  }
  if (len == 0 || rng->Bernoulli(0.6)) {
    pred.op = static_cast<CompareOp>(rng->Uniform(6));
    pred.literal = RandomLiteral(rng, values);
  }
  return pred;
}

PathQuery RandomQuery(Random* rng, const std::vector<std::string>& names,
                      const std::vector<std::string>& values) {
  PathQuery query;
  const size_t len = 1 + rng->Uniform(4);
  for (size_t i = 0; i < len; ++i) {
    QueryStep qs;
    qs.step = RandomStep(rng, names);
    while (rng->Bernoulli(0.35)) {
      qs.predicates.push_back(RandomPredicate(rng, names, values));
    }
    query.Append(std::move(qs));
  }
  return query;
}

// A small tree with repeated labels, same-name elements nested in each
// other and attributes. Children are attached to random earlier elements,
// so node indexes are not always pre-order.
xml::Document RandomTree(Random* rng, const std::vector<std::string>& values) {
  static const std::vector<std::string> kLabels = {"a", "b", "c"};
  static const std::vector<std::string> kAttrs = {"x", "y"};
  xml::Document doc;
  std::vector<xml::NodeIndex> elements = {doc.AddRoot(rng->Pick(kLabels))};
  const size_t n = rng->Uniform(25);
  for (size_t i = 0; i < n; ++i) {
    const xml::NodeIndex parent = rng->Bernoulli(0.7)
                                      ? elements.back()
                                      : rng->Pick(elements);
    const std::string& value = rng->Pick(values);
    if (rng->Bernoulli(0.25)) {
      doc.AddAttribute(parent, rng->Pick(kAttrs), value);
    } else {
      elements.push_back(doc.AddElement(parent, rng->Pick(kLabels),
                                        rng->Bernoulli(0.6) ? value : ""));
    }
  }
  return doc;
}

// Checks every entry point on (doc, query) against the reference.
// `scratch` is shared across calls, as the executor's scan loops share it
// across documents.
void ExpectSameAsReference(const xml::Document& doc, const PathQuery& query,
                           EvalScratch* scratch) {
  const std::vector<xml::NodeIndex> expected = reference::Evaluate(doc, query);
  EXPECT_EQ(Evaluate(doc, query), expected) << query.ToString();
  EvaluateInto(doc, query, scratch);
  EXPECT_EQ(scratch->nodes, expected) << query.ToString();
  EXPECT_EQ(Exists(doc, query), !expected.empty()) << query.ToString();
  EXPECT_EQ(Exists(doc, query, scratch), !expected.empty())
      << query.ToString();
  std::vector<xml::NodeIndex> linear;
  reference::EvalAbsolute(doc, query.Spine().steps(), &linear);
  reference::SortUnique(&linear);
  EXPECT_EQ(EvaluateLinear(doc, query.Spine()), linear) << query.ToString();
}

TEST(EvaluateDifferentialTest, RandomTreesAndQueries) {
  Random rng(15);
  const std::vector<std::string> values = ValuePool(&rng);
  const std::vector<std::string> names = {"a", "b", "c", "*", "@x", "@y"};
  EvalScratch scratch;
  size_t nonempty = 0;
  for (int d = 0; d < 400; ++d) {
    const xml::Document doc = RandomTree(&rng, values);
    for (int q = 0; q < 25; ++q) {
      const PathQuery query = RandomQuery(&rng, names, values);
      ExpectSameAsReference(doc, query, &scratch);
      nonempty += !reference::Evaluate(doc, query).empty();
    }
  }
  // The generator must produce matches, not only empty results.
  EXPECT_GT(nonempty, 1000u);
}

TEST(EvaluateDifferentialTest, TpoxDocuments) {
  Random rng(16);
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < 24; ++i) {
    docs.push_back(tpox::GenerateSecurityDocument(i, &rng));
    docs.push_back(tpox::GenerateOrderDocument(i, 24, &rng));
    docs.push_back(tpox::GenerateCustAccDocument(i, &rng));
  }
  // The vocabulary and values the documents actually use, so random
  // queries over them match.
  std::set<std::string> labels = {"*"};
  std::set<std::string> value_set;
  for (const xml::Document& doc : docs) {
    for (xml::NodeIndex i = 0; i < static_cast<xml::NodeIndex>(doc.size());
         ++i) {
      const xml::Node n = doc.node(i);
      labels.insert(n.label);
      if (!n.value.empty() && rng.Bernoulli(0.05)) value_set.insert(n.value);
    }
  }
  std::vector<std::string> values = ValuePool(&rng);
  values.insert(values.end(), value_set.begin(), value_set.end());
  const std::vector<std::string> names(labels.begin(), labels.end());

  std::vector<PathQuery> queries;
  for (const char* text : {
           "/Security[Yield > 5.05]",
           "/Security[PE > 31.05]",
           "/Security[SecInfo/*/Sector = \"Energy\"]",
           "/FIXML/Order[OrdQty/@Qty >= 2510]",
           "/Customer[Accounts/Account/Balance/OnlineActualBal/Amount > "
           "500000.005]",
           "/Security[Yield > 4.5][SecInfo/*/Sector = \"Energy\"]/Name",
           "//Amount[. > 1000]",
           "/Customer//Account[.//Amount >= 10]/Balance",
           "/FIXML/Order[@ID]/OrdQty/@Qty",
       }) {
    queries.push_back(*ParseQuery(text));
  }
  // Most queries start at a real root so that deeper steps get exercised.
  const std::vector<std::string> roots = {"Security", "FIXML", "Customer"};
  for (int q = 0; q < 600; ++q) {
    PathQuery query = RandomQuery(&rng, names, values);
    if (rng.Bernoulli(0.6)) {
      query.steps()[0].step = RandomStep(&rng, roots);
      query.steps()[0].step.axis = Axis::kChild;
    }
    queries.push_back(std::move(query));
  }
  EvalScratch scratch;
  for (const PathQuery& query : queries) {
    for (const xml::Document& doc : docs) {
      ExpectSameAsReference(doc, query, &scratch);
    }
  }
}

// Same acceptance and the same bits (any NaN for NaN) as the strtod-only
// reference.
void ExpectParseDoubleSameAsReference(const std::string& text) {
  double got = 0;
  double want = 0;
  const bool ok = ParseDouble(text, &got);
  ASSERT_EQ(ok, reference::ParseDouble(text, &want)) << "'" << text << "'";
  if (!ok) return;
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << "'" << text << "'";
  } else {
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "'" << text << "' " << got << " vs " << want;
  }
}

TEST(ParseDoubleDifferentialTest, PoolAndRandomText) {
  Random rng(17);
  for (const std::string& text : ValuePool(&rng)) {
    ExpectParseDoubleSameAsReference(text);
  }
  for (int i = 0; i < 20000; ++i) {
    ExpectParseDoubleSameAsReference(StringPrintf(
        "%.*g", static_cast<int>(1 + rng.Uniform(17)),
        (rng.NextDouble() - 0.5) * std::pow(10.0, rng.UniformInt(-320, 308))));
  }
  static const char kAlphabet[] = "0123456789+-.eExXpPinfaINFA() \t";
  for (int i = 0; i < 50000; ++i) {
    std::string text;
    const size_t len = rng.Uniform(9);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
    }
    ExpectParseDoubleSameAsReference(text);
  }
}

TEST(ParseDoubleTest, AcceptsWhatStrtodAccepts) {
  double v = 0;
  ASSERT_TRUE(ParseDouble(" 7 ", &v));
  EXPECT_EQ(v, 7);
  ASSERT_TRUE(ParseDouble("+5", &v));
  EXPECT_EQ(v, 5);
  ASSERT_TRUE(ParseDouble("0x1A", &v));
  EXPECT_EQ(v, 26);
  ASSERT_TRUE(ParseDouble("1e3", &v));
  EXPECT_EQ(v, 1000);
  ASSERT_TRUE(ParseDouble("inf", &v));
  EXPECT_TRUE(std::isinf(v));
  ASSERT_TRUE(ParseDouble("1e999", &v));
  EXPECT_TRUE(std::isinf(v));
  ASSERT_TRUE(ParseDouble("nan", &v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("  ", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1e", &v));
}

}  // namespace
}  // namespace xia::xpath
