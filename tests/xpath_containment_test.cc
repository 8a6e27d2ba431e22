#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "advisor/advisor.h"
#include "advisor/dag.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "xpath/containment.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xml/document.h"

namespace xia::xpath {
namespace {

Path P(const char* text) {
  auto p = ParsePattern(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return *p;
}

// ---------------------------------------------------------------------------
// Reference containment: the subset construction as first written, with
// std::set families, a sorted alphabet vector and one label compare per
// step and symbol. Kept as the oracle Covers must agree with.

namespace reference {

using StateSet = uint64_t;

StateSet StepOn(const Path& p, StateSet states, std::string_view label,
                bool fresh) {
  StateSet next = 0;
  const auto& steps = p.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!(states & (1ULL << i))) continue;
    const Step& s = steps[i];
    const bool label_ok = fresh ? s.is_wildcard() : s.MatchesLabel(label);
    if (label_ok) next |= 1ULL << (i + 1);
    if (s.axis == Axis::kDescendant) next |= 1ULL << i;
  }
  return next;
}

std::vector<std::string_view> PatternAlphabet(const Path& p) {
  std::vector<std::string_view> labels;
  for (const auto& s : p.steps()) {
    if (!s.is_wildcard()) labels.push_back(s.name_test.view());
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

void CloseUnderArbitrarySymbols(const Path& p,
                                const std::vector<std::string_view>& alphabet,
                                std::set<StateSet>* family) {
  std::vector<StateSet> frontier(family->begin(), family->end());
  while (!frontier.empty()) {
    const StateSet s = frontier.back();
    frontier.pop_back();
    std::vector<StateSet> successors;
    for (const auto& label : alphabet) {
      successors.push_back(StepOn(p, s, label, /*fresh=*/false));
    }
    successors.push_back(StepOn(p, s, "", /*fresh=*/true));
    for (StateSet t : successors) {
      if (family->insert(t).second) frontier.push_back(t);
    }
  }
}

// Also reports the largest family the construction went through, so a
// test can tell whether it exercised large families.
bool Covers(const Path& index, const Path& query,
            size_t* max_family = nullptr) {
  const std::vector<std::string_view> alphabet = PatternAlphabet(index);
  const StateSet accept_bit = 1ULL << index.size();
  std::set<StateSet> family = {StateSet{1}};
  size_t largest = 1;
  for (const auto& qs : query.steps()) {
    if (qs.axis == Axis::kDescendant) {
      CloseUnderArbitrarySymbols(index, alphabet, &family);
      largest = std::max(largest, family.size());
    }
    std::set<StateSet> next_family;
    for (StateSet s : family) {
      if (qs.is_wildcard()) {
        for (const auto& label : alphabet) {
          next_family.insert(StepOn(index, s, label, /*fresh=*/false));
        }
        next_family.insert(StepOn(index, s, "", /*fresh=*/true));
      } else {
        next_family.insert(
            StepOn(index, s, qs.name_test.view(), /*fresh=*/false));
      }
    }
    family = std::move(next_family);
    largest = std::max(largest, family.size());
  }
  if (max_family != nullptr) *max_family = largest;
  for (StateSet s : family) {
    if (!(s & accept_bit)) return false;
  }
  return true;
}

// MatchesLabelPath over label text: the NFA above stepped on each label,
// one string compare per step.
bool MatchesLabelPath(const Path& p, const std::vector<std::string>& labels) {
  StateSet states = 1;
  for (const std::string& label : labels) {
    states = StepOn(p, states, label, /*fresh=*/false);
  }
  return (states & (1ULL << p.size())) != 0;
}

// BuildDag as first written: both containment directions for every
// same-kind pair, then the transitive reduction.
std::vector<std::pair<int, int>> DagEdges(const advisor::CandidateSet& set) {
  const size_t n = set.size();
  std::vector<std::vector<bool>> strict(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const advisor::Candidate& a = set[i];
      const advisor::Candidate& b = set[j];
      if (a.collection != b.collection) continue;
      if (a.pattern.structural != b.pattern.structural) continue;
      if (!a.pattern.structural && a.pattern.type != b.pattern.type) {
        continue;
      }
      const bool ab = reference::Covers(a.pattern.path, b.pattern.path);
      const bool ba = reference::Covers(b.pattern.path, a.pattern.path);
      if ((ab && !ba) || (ab && ba && i < j)) strict[i][j] = true;
    }
  }
  std::vector<std::pair<int, int>> edges;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!strict[i][j]) continue;
      bool immediate = true;
      for (size_t k = 0; k < n && immediate; ++k) {
        if (k == i || k == j) continue;
        if (strict[i][k] && strict[k][j]) immediate = false;
      }
      if (immediate) {
        edges.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return edges;
}

}  // namespace reference

std::vector<xml::Tag> L(std::initializer_list<std::string_view> labels) {
  std::vector<xml::Tag> tags;
  for (std::string_view label : labels) tags.emplace_back(label);
  return tags;
}

TEST(MatchLabelPathTest, ExactChildPath) {
  EXPECT_TRUE(MatchesLabelPath(P("/a/b/c"), L({"a", "b", "c"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a/b/c"), L({"a", "b"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a/b/c"), L({"a", "b", "c", "d"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a/b/c"), L({"a", "x", "c"})));
}

TEST(MatchLabelPathTest, Wildcard) {
  EXPECT_TRUE(MatchesLabelPath(P("/a/*/c"), L({"a", "b", "c"})));
  EXPECT_TRUE(MatchesLabelPath(P("/a/*/c"), L({"a", "zz", "c"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a/*/c"), L({"a", "c"})));
}

TEST(MatchLabelPathTest, Descendant) {
  EXPECT_TRUE(MatchesLabelPath(P("//c"), L({"c"})));
  EXPECT_TRUE(MatchesLabelPath(P("//c"), L({"a", "b", "c"})));
  EXPECT_FALSE(MatchesLabelPath(P("//c"), L({"a", "c", "b"})));
  EXPECT_TRUE(MatchesLabelPath(P("/a//c"), L({"a", "c"})));
  EXPECT_TRUE(MatchesLabelPath(P("/a//c"), L({"a", "x", "y", "c"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a//c"), L({"b", "x", "c"})));
}

TEST(MatchLabelPathTest, Universal) {
  EXPECT_TRUE(MatchesLabelPath(P("//*"), L({"a"})));
  EXPECT_TRUE(MatchesLabelPath(P("//*"), L({"a", "b", "c"})));
  EXPECT_FALSE(MatchesLabelPath(P("//*"), L({})));
}

TEST(MatchLabelPathTest, RepeatedLabels) {
  EXPECT_TRUE(MatchesLabelPath(P("/a//a"), L({"a", "a"})));
  EXPECT_TRUE(MatchesLabelPath(P("/a//a"), L({"a", "b", "a"})));
  EXPECT_FALSE(MatchesLabelPath(P("/a//a"), L({"a"})));
}

TEST(CoversTest, Reflexive) {
  for (const char* text : {"/a", "/a/b", "//a", "/a/*/c", "//*", "/a//b"}) {
    EXPECT_TRUE(Covers(P(text), P(text))) << text;
  }
}

TEST(CoversTest, UniversalCoversEverything) {
  for (const char* text : {"/a", "/a/b/c", "//a", "/a/*/c", "/a//b"}) {
    EXPECT_TRUE(Covers(P("//*"), P(text))) << text;
    EXPECT_FALSE(Covers(P(text), P("//*"))) << text;
  }
}

TEST(CoversTest, PaperTableOneExamples) {
  // /Security//* covers the two specific candidates it generalizes (§V).
  EXPECT_TRUE(Covers(P("/Security//*"), P("/Security/Symbol")));
  EXPECT_TRUE(Covers(P("/Security//*"), P("/Security/SecInfo/*/Sector")));
  EXPECT_TRUE(Covers(P("/Security//*"), P("/Security//Industry")));
  EXPECT_FALSE(Covers(P("/Security//*"), P("/Other/Symbol")));
  EXPECT_FALSE(Covers(P("/Security/Symbol"), P("/Security//*")));
}

TEST(CoversTest, IntroExamples) {
  // §I: /Security[Yield>4.5] can use /Security/Yield, /Security/* or
  // //Yield — each must cover the compared pattern /Security/Yield.
  EXPECT_TRUE(Covers(P("/Security/Yield"), P("/Security/Yield")));
  EXPECT_TRUE(Covers(P("/Security/*"), P("/Security/Yield")));
  EXPECT_TRUE(Covers(P("//Yield"), P("/Security/Yield")));
}

TEST(CoversTest, WildcardVsConcrete) {
  EXPECT_TRUE(Covers(P("/a/*"), P("/a/b")));
  EXPECT_FALSE(Covers(P("/a/b"), P("/a/*")));
  EXPECT_TRUE(Covers(P("/*/b"), P("/a/b")));
  EXPECT_FALSE(Covers(P("/a/*"), P("/a/b/c")));
}

TEST(CoversTest, DescendantVsChild) {
  EXPECT_TRUE(Covers(P("/a//b"), P("/a/b")));
  EXPECT_TRUE(Covers(P("/a//b"), P("/a/x/b")));
  EXPECT_TRUE(Covers(P("/a//b"), P("/a/*/b")));
  EXPECT_FALSE(Covers(P("/a/b"), P("/a//b")));
  EXPECT_FALSE(Covers(P("/a/*/b"), P("/a//b")));  // // allows zero gap
  EXPECT_TRUE(Covers(P("/a//b"), P("/a/*/*/b")));
}

TEST(CoversTest, GapSubtleties) {
  // /a//b ⊆ //b but not vice versa.
  EXPECT_TRUE(Covers(P("//b"), P("/a//b")));
  EXPECT_FALSE(Covers(P("/a//b"), P("//b")));
  // //a//b vs //b.
  EXPECT_TRUE(Covers(P("//b"), P("//a//b")));
  EXPECT_FALSE(Covers(P("//a//b"), P("//b")));
}

TEST(CoversTest, WildcardGapInteraction) {
  // //* covers /a but /*/ * (depth exactly 2) does not cover /a (depth 1).
  EXPECT_FALSE(Covers(P("/*/*"), P("/a")));
  EXPECT_TRUE(Covers(P("/*/*"), P("/a/b")));
  // //*//* requires depth >= 2.
  EXPECT_FALSE(Covers(P("//*//*"), P("/a")));
  EXPECT_TRUE(Covers(P("//*//*"), P("/a/b")));
  EXPECT_TRUE(Covers(P("//*//*"), P("/a/b/c")));
}

TEST(CoversTest, NonTrivialEquivalences) {
  // //*//b and //b are NOT equivalent (//*//b needs depth >= 2)...
  EXPECT_TRUE(Covers(P("//b"), P("//*//b")));
  EXPECT_FALSE(Covers(P("//*//b"), P("//b")));
  // ...but //a//* and /a//* differ only in where a may sit.
  EXPECT_TRUE(Covers(P("//a//*"), P("/a//*")));
  EXPECT_FALSE(Covers(P("/a//*"), P("//a//*")));
}

TEST(CoversTest, Transitivity) {
  // spot-check transitivity on a chain.
  EXPECT_TRUE(Covers(P("//*"), P("/Security//*")));
  EXPECT_TRUE(Covers(P("/Security//*"), P("/Security/SecInfo/*/Sector")));
  EXPECT_TRUE(Covers(P("//*"), P("/Security/SecInfo/*/Sector")));
}

TEST(CoversTest, EquivalentHelper) {
  EXPECT_TRUE(Equivalent(P("/a/b"), P("/a/b")));
  EXPECT_FALSE(Equivalent(P("/a/b"), P("/a/*")));
  EXPECT_TRUE(StrictlyCovers(P("/a/*"), P("/a/b")));
  EXPECT_FALSE(StrictlyCovers(P("/a/b"), P("/a/b")));
}

// ---------------------------------------------------------------------------
// Property test: Covers agrees with evaluation on random documents.
// If Covers(P, Q) then every node selected by Q in any document must be
// selected by P too.

class ContainmentPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random linear pattern over a tiny alphabet.
Path RandomPattern(Random* rng, size_t max_len = 4) {
  std::vector<Step> steps;
  const size_t len = 1 + rng->Uniform(max_len);
  const char* names[] = {"a", "b", "c", "*"};
  for (size_t i = 0; i < len; ++i) {
    const Axis axis = rng->Bernoulli(0.3) ? Axis::kDescendant : Axis::kChild;
    steps.emplace_back(axis, names[rng->Uniform(4)]);
  }
  return Path(std::move(steps));
}

// Random document over the same alphabet.
xml::Document RandomDocument(Random* rng) {
  xml::Document doc;
  const char* names[] = {"a", "b", "c", "d"};
  const xml::NodeIndex root = doc.AddRoot(names[rng->Uniform(4)]);
  std::vector<xml::NodeIndex> frontier = {root};
  const size_t n_nodes = 3 + rng->Uniform(20);
  for (size_t i = 0; i < n_nodes; ++i) {
    const xml::NodeIndex parent = frontier[rng->Uniform(frontier.size())];
    frontier.push_back(doc.AddElement(parent, names[rng->Uniform(4)]));
  }
  return doc;
}

TEST_P(ContainmentPropertyTest, CoversImpliesSupersetOfMatches) {
  Random rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const Path p = RandomPattern(&rng);
    const Path q = RandomPattern(&rng);
    const bool covers = Covers(p, q);
    for (int d = 0; d < 10; ++d) {
      xml::Document doc = RandomDocument(&rng);
      const auto q_nodes = EvaluateLinear(doc, q);
      const auto p_nodes = EvaluateLinear(doc, p);
      if (covers) {
        for (xml::NodeIndex n : q_nodes) {
          EXPECT_TRUE(std::find(p_nodes.begin(), p_nodes.end(), n) !=
                      p_nodes.end())
              << "Covers(" << p.ToString() << ", " << q.ToString()
              << ") but node " << n << " selected only by the query pattern";
        }
      }
    }
  }
}

TEST_P(ContainmentPropertyTest, MatchAgreesWithEvaluator) {
  Random rng(GetParam() * 977 + 3);
  for (int trial = 0; trial < 40; ++trial) {
    const Path p = RandomPattern(&rng);
    xml::Document doc = RandomDocument(&rng);
    const auto selected = EvaluateLinear(doc, p);
    for (size_t i = 0; i < doc.size(); ++i) {
      const auto n = static_cast<xml::NodeIndex>(i);
      const bool in_eval =
          std::find(selected.begin(), selected.end(), n) != selected.end();
      const bool matches = MatchesLabelPath(p, doc.LabelPath(n));
      EXPECT_EQ(in_eval, matches)
          << p.ToString() << " node " << doc.LabelPathString(n);
    }
  }
}

TEST_P(ContainmentPropertyTest, CoversAgreesWithReferenceOracle) {
  Random rng(GetParam() * 31 + 7);
  std::vector<Path> patterns;
  for (int i = 0; i < 48; ++i) patterns.push_back(RandomPattern(&rng));
  // Longer patterns drive the state families past the inline buffer.
  for (int i = 0; i < 32; ++i) patterns.push_back(RandomPattern(&rng, 20));
  size_t largest_family = 0;
  for (const Path& p : patterns) {
    for (const Path& q : patterns) {
      size_t family = 0;
      EXPECT_EQ(Covers(p, q), reference::Covers(p, q, &family))
          << "Covers(" << p.ToString() << ", " << q.ToString() << ")";
      largest_family = std::max(largest_family, family);
    }
  }
  EXPECT_GT(largest_family, 32u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The TPoX database and the candidate set (basic and generalized) of its
// workload: the paper's 11 queries plus synthetic statements over all
// three collections.
struct PaperWorkload {
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  advisor::CandidateSet set;

  void Build() {
    tpox::TpoxScale scale;
    scale.security_docs = 300;
    scale.order_docs = 300;
    scale.custacc_docs = 100;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store, &stats).ok());
    auto workload = tpox::TpoxQueries();
    ASSERT_TRUE(workload.ok());
    Random rng(42);
    auto synthetic = tpox::GenerateSyntheticWorkload(
        stats,
        {tpox::kSecurityCollection, tpox::kOrderCollection,
         tpox::kCustAccCollection},
        40, &rng);
    ASSERT_TRUE(synthetic.ok());
    workload->insert(workload->end(), synthetic->begin(), synthetic->end());
    advisor::IndexAdvisor advisor(&store, &stats);
    auto built = advisor.BuildCandidates(*workload, /*generalize=*/true);
    ASSERT_TRUE(built.ok()) << built.status();
    set = std::move(*built);
  }
};

// Statistics paths carry their labels as tags; matching compares tags.
// Every TPoX statistics path against every candidate pattern must match
// exactly as the label-text reference does.
TEST(MatchLabelPathTest, TagsAgreeWithTextOnPaperWorkload) {
  PaperWorkload paper;
  ASSERT_NO_FATAL_FAILURE(paper.Build());
  size_t matches = 0;
  size_t pairs = 0;
  for (const char* collection :
       {tpox::kSecurityCollection, tpox::kOrderCollection,
        tpox::kCustAccCollection}) {
    auto cs = paper.stats.Get(collection);
    ASSERT_TRUE(cs.ok());
    for (const auto& [path_string, path_stats] : (*cs)->paths()) {
      const std::vector<std::string> text(path_stats.labels.begin(),
                                          path_stats.labels.end());
      for (const advisor::Candidate& c : paper.set.candidates) {
        const bool expected = reference::MatchesLabelPath(c.pattern.path, text);
        EXPECT_EQ(MatchesLabelPath(c.pattern.path, path_stats.labels),
                  expected)
            << c.pattern.path.ToString() << " vs " << path_string;
        matches += expected ? 1 : 0;
        ++pairs;
      }
    }
  }
  EXPECT_GT(pairs, 4000u);
  EXPECT_GT(matches, 100u);
}

// BuildDag tests only one direction of containment unless the first
// holds; its edges must match the both-directions reference on the TPoX
// workload's candidates.
TEST(BuildDagTest, EdgesMatchReferenceOnPaperWorkload) {
  PaperWorkload paper;
  ASSERT_NO_FATAL_FAILURE(paper.Build());
  advisor::CandidateSet* set = &paper.set;
  advisor::BuildDag(set);

  std::vector<std::pair<int, int>> edges;
  for (const advisor::Candidate& c : set->candidates) {
    for (int child : c.children) edges.emplace_back(c.id, child);
  }
  const std::vector<std::pair<int, int>> expected =
      reference::DagEdges(*set);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(edges, expected);
  // Parent lists mirror the child lists, in ascending parent order.
  for (const advisor::Candidate& c : set->candidates) {
    std::vector<int> parents;
    for (const auto& [from, to] : expected) {
      if (to == c.id) parents.push_back(from);
    }
    EXPECT_EQ(c.parents, parents) << c.ToString();
  }
}

}  // namespace
}  // namespace xia::xpath
