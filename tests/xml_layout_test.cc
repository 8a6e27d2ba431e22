// Invariants of the compact pre-order document layout, over TPoX, XMark,
// seeded random and parser-fuzzed documents:
//   - each node's subtree end is one past its last descendant and its
//     parent is the one it was built under;
//   - children() yields what a reconstruction from parent pointers alone
//     yields;
//   - Serialize -> Parse reproduces identical nodes;
//   - ApproximateByteSize() stays the per-node formula through in-place,
//     appended and compacted value updates.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tpox/tpox_data.h"
#include "tpox/xmark.h"
#include "util/random.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xia::xml {
namespace {

// Children lists and subtree ends rebuilt from parent pointers alone.
struct Reconstruction {
  std::vector<std::vector<NodeIndex>> children;
  std::vector<NodeIndex> end;
};

Reconstruction Reconstruct(const Document& doc) {
  const auto n = static_cast<NodeIndex>(doc.size());
  Reconstruction r;
  r.children.resize(doc.size());
  r.end.resize(doc.size());
  for (NodeIndex i = 1; i < n; ++i) {
    r.children[static_cast<size_t>(doc.parent(i))].push_back(i);
  }
  for (NodeIndex i = n - 1; i >= 0; --i) {
    const auto& kids = r.children[static_cast<size_t>(i)];
    r.end[static_cast<size_t>(i)] =
        kids.empty() ? i + 1 : r.end[static_cast<size_t>(kids.back())];
  }
  return r;
}

// Checks the structural invariants; `expected_parent`, when given, is the
// parent each node was built under.
void ExpectWellFormed(const Document& doc,
                      const std::vector<NodeIndex>* expected_parent = nullptr) {
  ASSERT_FALSE(doc.empty());
  const auto n = static_cast<NodeIndex>(doc.size());
  EXPECT_EQ(doc.parent(0), kInvalidNode);
  EXPECT_EQ(doc.end(0), n);
  const Reconstruction r = Reconstruct(doc);
  for (NodeIndex i = 0; i < n; ++i) {
    const auto at = static_cast<size_t>(i);
    if (i > 0) {
      // Pre-order: the parent precedes the node and its subtree covers it.
      const NodeIndex p = doc.parent(i);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, i);
      EXPECT_GT(doc.end(p), i);
      EXPECT_TRUE(doc.is_element(p)) << "node " << i;
    }
    if (expected_parent != nullptr) {
      EXPECT_EQ(doc.parent(i), (*expected_parent)[at]) << "node " << i;
    }
    EXPECT_EQ(doc.end(i), r.end[at]) << "node " << i;
    EXPECT_EQ(doc.has_children(i), !r.children[at].empty()) << "node " << i;
    std::vector<NodeIndex> kids;
    for (NodeIndex c : doc.children(i)) kids.push_back(c);
    EXPECT_EQ(kids, r.children[at]) << "node " << i;
    EXPECT_EQ(doc.ChildCount(i), r.children[at].size());

    const Node view = doc.node(i);
    EXPECT_EQ(view.label, doc.label(i));
    EXPECT_EQ(view.value, doc.value(i));
    EXPECT_EQ(view.parent, doc.parent(i));
    EXPECT_EQ(view.end, doc.end(i));
    EXPECT_EQ(view.is_attribute(), doc.is_attribute(i));
    EXPECT_EQ(doc.is_attribute(i), doc.label(i).view().starts_with('@'));
  }
}

// Bytes the storage model charges: the per-node formula summed.
size_t FormulaBytes(const Document& doc) {
  size_t total = 0;
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc.size()); ++i) {
    total += 2 * doc.label(i).size() + doc.value(i).size() + 16;
  }
  return total;
}

size_t LiveValueBytes(const Document& doc) {
  size_t total = 0;
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc.size()); ++i) {
    total += doc.value(i).size();
  }
  return total;
}

void ExpectSameNodes(const Document& a, const Document& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(a.size()); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "node " << i;
    EXPECT_EQ(a.value(i), b.value(i)) << "node " << i;
    EXPECT_EQ(a.parent(i), b.parent(i)) << "node " << i;
    EXPECT_EQ(a.end(i), b.end(i)) << "node " << i;
    EXPECT_EQ(a.is_attribute(i), b.is_attribute(i)) << "node " << i;
  }
}

void ExpectSerializeParseIdentity(const Document& doc) {
  for (bool pretty : {false, true}) {
    SerializeOptions options;
    options.pretty = pretty;
    auto parsed = Parse(Serialize(doc, 0, options));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectSameNodes(doc, *parsed);
    EXPECT_EQ(parsed->ApproximateByteSize(), doc.ApproximateByteSize());
  }
}

std::string RandomName(Random* rng) {
  static const char* const kNames[] = {"a", "b", "item", "Sector", "x-y",
                                       "n1", "ns:tag", "_q"};
  return kNames[rng->Uniform(8)];
}

// Values the parser reproduces exactly: no leading/trailing whitespace,
// and markup characters the serializer escapes.
std::string RandomValue(Random* rng, size_t max_len) {
  static const char kChars[] = "abcXYZ019 .<>&\"'-";
  const size_t len = rng->Uniform(max_len + 1);
  std::string v;
  for (size_t i = 0; i < len; ++i) {
    v.push_back(kChars[rng->Uniform(sizeof(kChars) - 1)]);
  }
  while (!v.empty() && v.back() == ' ') v.pop_back();
  while (!v.empty() && v.front() == ' ') v.erase(0, 1);
  return v;
}

// A random document built in pre-order through the builder API: each new
// node hangs under a random element on the open path, and attributes come
// before an element's first element child (the order the serializer
// writes them, so Serialize -> Parse is the identity).
Document RandomDocument(Random* rng, size_t nodes,
                        std::vector<NodeIndex>* parents) {
  Document doc;
  doc.AddRoot(RandomName(rng));
  parents->assign(1, kInvalidNode);
  std::vector<NodeIndex> open = {0};  // elements on the open path
  std::vector<bool> has_element_child = {false};
  if (rng->Bernoulli(0.3)) doc.SetValue(0, RandomValue(rng, 12));
  while (doc.size() < nodes) {
    open.resize(1 + rng->Uniform(open.size()));
    const NodeIndex parent = open.back();
    EXPECT_TRUE(doc.OnOpenPath(parent));
    const auto at = static_cast<size_t>(parent);
    NodeIndex added;
    if (!has_element_child[at] && rng->Bernoulli(0.25)) {
      added = doc.AddAttribute(parent, "k" + std::to_string(doc.size()),
                               RandomValue(rng, 8));
    } else {
      added = doc.AddElement(parent, RandomName(rng),
                             rng->Bernoulli(0.5) ? RandomValue(rng, 20) : "");
      has_element_child[at] = true;
      open.push_back(added);
    }
    EXPECT_NE(added, kInvalidNode);
    parents->push_back(parent);
    has_element_child.push_back(false);
    // Mixed content: an element's text may be set after its children.
    if (rng->Bernoulli(0.05)) doc.SetValue(parent, RandomValue(rng, 10));
  }
  return doc;
}

TEST(XmlLayoutTest, TpoxAndXmarkDocuments) {
  for (uint64_t seed : {1, 2, 3}) {
    Random rng(seed);
    for (size_t i = 0; i < 30; ++i) {
      for (const Document& doc :
           {tpox::GenerateSecurityDocument(i, &rng),
            tpox::GenerateOrderDocument(i, 100, &rng),
            tpox::GenerateCustAccDocument(i, &rng),
            tpox::GenerateXmarkItem(i, &rng),
            tpox::GenerateXmarkAuction(i, 50, 50, &rng),
            tpox::GenerateXmarkPerson(i, &rng)}) {
        ExpectWellFormed(doc);
        EXPECT_EQ(doc.ApproximateByteSize(), FormulaBytes(doc));
        ExpectSerializeParseIdentity(doc);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(XmlLayoutTest, SeededRandomDocuments) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    std::vector<NodeIndex> parents;
    const Document doc = RandomDocument(&rng, 1 + rng.Uniform(200), &parents);
    ExpectWellFormed(doc, &parents);
    EXPECT_EQ(doc.ApproximateByteSize(), FormulaBytes(doc));
    ExpectSerializeParseIdentity(doc);
    if (HasFatalFailure()) return;
  }
}

// Random XML text: nested elements, attributes, entity references,
// comments, CDATA and indentation, mutated at random. Whatever parses must
// be a well-formed layout that round-trips.
std::string RandomXml(Random* rng, int depth) {
  std::string name = RandomName(rng);
  std::string out = "<" + name;
  for (size_t a = rng->Uniform(3); a > 0; --a) {
    out += " at" + std::to_string(a) + "=\"" + RandomValue(rng, 6) + "\"";
  }
  if (depth == 0 || rng->Bernoulli(0.2)) return out + "/>";
  out += ">";
  for (size_t c = rng->Uniform(5); c > 0; --c) {
    switch (rng->Uniform(6)) {
      case 0:
        out += "text&amp;more";
        break;
      case 1:
        out += "<!-- note -->";
        break;
      case 2:
        out += "<![CDATA[a<b]]>";
        break;
      case 3:
        out += "\n  ";
        break;
      default:
        out += RandomXml(rng, depth - 1);
    }
  }
  return out + "</" + name + ">";
}

TEST(XmlLayoutTest, ParserFuzzedDocuments) {
  Random rng(99);
  int parsed_count = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string text = RandomXml(&rng, 5);
    if (rng.Bernoulli(0.5) && !text.empty()) {
      // One random byte edit; most still parse, some do not.
      const size_t at = rng.Uniform(text.size());
      static const char kBytes[] = "<>/=\"a &;";
      text[at] = kBytes[rng.Uniform(sizeof(kBytes) - 1)];
    }
    auto doc = Parse(text);
    if (!doc.ok()) continue;
    ++parsed_count;
    ExpectWellFormed(*doc);
    EXPECT_EQ(doc->ApproximateByteSize(), FormulaBytes(*doc));
    auto again = Parse(Serialize(*doc));
    ASSERT_TRUE(again.ok()) << again.status();
    ExpectSameNodes(*doc, *again);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(parsed_count, 300);
}

TEST(XmlLayoutTest, ValueUpdatesKeepTheByteFormulaAcrossRebuilds) {
  for (uint64_t seed : {5, 6, 7, 8}) {
    Random rng(seed);
    std::vector<NodeIndex> parents;
    Document doc = RandomDocument(&rng, 60, &parents);
    std::vector<std::string> shadow;
    for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc.size()); ++i) {
      shadow.emplace_back(doc.value(i));
    }
    int rebuilds = 0;
    for (int op = 0; op < 3000; ++op) {
      const auto n = static_cast<NodeIndex>(rng.Uniform(doc.size()));
      const std::string& old = shadow[static_cast<size_t>(n)];
      std::string next;
      NodeIndex source = kInvalidNode;
      switch (rng.Uniform(4)) {
        case 0:  // grow
          next = old + RandomValue(&rng, 30) + "g";
          break;
        case 1:  // shrink
          next = old.substr(0, old.empty() ? 0 : rng.Uniform(old.size()));
          break;
        case 2:  // same length, new bytes
          next = std::string(old.size(), static_cast<char>('a' + op % 26));
          break;
        default:  // another node's value, passed as a view into the arena
          source = static_cast<NodeIndex>(rng.Uniform(doc.size()));
          next = std::string(doc.value(source));
          break;
      }
      const size_t arena_before = doc.ValueArenaBytes();
      const bool grows = next.size() > old.size();
      if (source != kInvalidNode) {
        doc.SetValue(n, doc.value(source));
      } else {
        doc.SetValue(n, next);
      }
      if (doc.ValueArenaBytes() < arena_before && grows) ++rebuilds;
      shadow[static_cast<size_t>(n)] = next;
      ASSERT_EQ(doc.value(n), next);
      ASSERT_EQ(doc.ApproximateByteSize(), FormulaBytes(doc)) << "op " << op;
      // Dead bytes never outnumber live ones after an update.
      ASSERT_LE(doc.ValueArenaBytes(), 2 * LiveValueBytes(doc)) << "op " << op;
      if (op % 100 == 0) {
        for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc.size()); ++i) {
          ASSERT_EQ(doc.value(i), shadow[static_cast<size_t>(i)])
              << "op " << op << " node " << i;
        }
      }
    }
    EXPECT_GT(rebuilds, 0) << "seed " << seed;
    ExpectWellFormed(doc, &parents);
    for (NodeIndex i = 0; i < static_cast<NodeIndex>(doc.size()); ++i) {
      EXPECT_EQ(doc.value(i), shadow[static_cast<size_t>(i)]);
    }
    doc.ShrinkToFit();
    EXPECT_EQ(doc.ValueArenaBytes(), LiveValueBytes(doc));
    EXPECT_EQ(doc.ApproximateByteSize(), FormulaBytes(doc));
  }
}

TEST(XmlLayoutTest, BuilderAcceptsOnlyTheOpenPath) {
  Document doc;
  const NodeIndex root = doc.AddRoot("r");
  const NodeIndex a = doc.AddElement(root, "a");
  const NodeIndex a1 = doc.AddElement(a, "a1", "v");
  EXPECT_TRUE(doc.OnOpenPath(a1));
  EXPECT_TRUE(doc.OnOpenPath(a));
  EXPECT_TRUE(doc.OnOpenPath(root));
  EXPECT_FALSE(doc.OnOpenPath(kInvalidNode));
  EXPECT_FALSE(doc.OnOpenPath(3));
  const NodeIndex b = doc.AddElement(root, "b");
  // `a` and its subtree are closed now.
  EXPECT_FALSE(doc.OnOpenPath(a));
  EXPECT_FALSE(doc.OnOpenPath(a1));
  EXPECT_TRUE(doc.OnOpenPath(b));
  const size_t before = doc.size();
  NodeIndex late = 0;
  EXPECT_DEBUG_DEATH(late = doc.AddElement(a, "late"), "OnOpenPath");
#ifdef NDEBUG
  EXPECT_EQ(late, kInvalidNode);
  EXPECT_EQ(doc.size(), before);
#endif
  // Attributes have no children.
  const NodeIndex attr = doc.AddAttribute(b, "k", "v");
  EXPECT_TRUE(doc.OnOpenPath(attr));
  EXPECT_DEBUG_DEATH(late = doc.AddElement(attr, "under"), "OnOpenPath");
#ifdef NDEBUG
  EXPECT_EQ(late, kInvalidNode);
  EXPECT_EQ(doc.size(), before + 1);
#endif
  (void)late;
  (void)before;
  EXPECT_EQ(doc.end(a), b);
  EXPECT_EQ(doc.end(root), static_cast<NodeIndex>(doc.size()));
}

TEST(XmlLayoutTest, AddingAValueReadFromTheSameDocument) {
  Document doc;
  const NodeIndex root = doc.AddRoot("r");
  NodeIndex last = doc.AddElement(root, "a", "first value");
  // Each copy is appended from a view into the arena it grows.
  for (int i = 0; i < 20; ++i) {
    last = doc.AddElement(root, "a", doc.value(last));
  }
  for (NodeIndex i = 1; i < static_cast<NodeIndex>(doc.size()); ++i) {
    EXPECT_EQ(doc.value(i), "first value");
  }
  EXPECT_EQ(doc.ApproximateByteSize(), FormulaBytes(doc));
}

}  // namespace
}  // namespace xia::xml
