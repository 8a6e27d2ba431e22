#include <gtest/gtest.h>

#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xia::xml {
namespace {

TEST(DocumentTest, BuildTree) {
  Document doc;
  const NodeIndex root = doc.AddRoot("Security");
  const NodeIndex symbol = doc.AddElement(root, "Symbol", "IBM");
  const NodeIndex info = doc.AddElement(root, "SecInfo");
  const NodeIndex stock = doc.AddElement(info, "StockInformation");
  const NodeIndex sector = doc.AddElement(stock, "Sector", "Tech");

  EXPECT_EQ(doc.size(), 5u);
  EXPECT_EQ(doc.root(), root);
  EXPECT_EQ(doc.node(symbol).value, "IBM");
  EXPECT_EQ(doc.ChildCount(root), 2u);
  EXPECT_EQ(doc.node(sector).parent, stock);
  EXPECT_EQ(doc.Depth(sector), 4);
  EXPECT_EQ(doc.LabelPathString(sector),
            "/Security/SecInfo/StockInformation/Sector");
  EXPECT_EQ(doc.LabelPath(symbol),
            (std::vector<Tag>{Tag("Security"), Tag("Symbol")}));
}

TEST(TagTest, IdsAreDenseAndFollowTheText) {
  const Tag a("TagTest-a");
  const Tag b("TagTest-b");
  EXPECT_EQ(Tag("TagTest-a").id(), a.id());
  EXPECT_NE(a.id(), b.id());
  EXPECT_LT(a.id(), Tag::PoolSize());
  EXPECT_LT(b.id(), Tag::PoolSize());
  // Ids number the pool in interning order; ordering stays textual.
  const Tag z("TagTest-0-interned-last");
  EXPECT_GT(z.id(), b.id());
  EXPECT_TRUE(z < a);
}

TEST(DocumentTest, Attributes) {
  Document doc;
  const NodeIndex root = doc.AddRoot("Order");
  const NodeIndex id = doc.AddAttribute(root, "ID", "103");
  EXPECT_TRUE(doc.node(id).is_attribute());
  EXPECT_EQ(doc.node(id).label, "@ID");
  EXPECT_EQ(doc.node(id).value, "103");
  EXPECT_EQ(doc.LabelPathString(id), "/Order/@ID");
}

TEST(DocumentTest, ApproximateByteSizeGrows) {
  Document doc;
  const NodeIndex root = doc.AddRoot("a");
  const size_t before = doc.ApproximateByteSize();
  doc.AddElement(root, "child", "some value here");
  EXPECT_GT(doc.ApproximateByteSize(), before);
}

TEST(ParserTest, SimpleDocument) {
  auto doc = Parse("<a><b>1</b><c attr=\"x\">two</c></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->size(), 4u);
  EXPECT_EQ(doc->node(0).label, "a");
  EXPECT_EQ(doc->node(1).label, "b");
  EXPECT_EQ(doc->node(1).value, "1");
  // c has attribute child @attr.
  const Node& c = doc->node(2);
  EXPECT_EQ(c.label, "c");
  EXPECT_EQ(c.value, "two");
  ASSERT_EQ(doc->ChildCount(2), 1u);
  EXPECT_EQ(doc->node(3).label, "@attr");
  EXPECT_EQ(doc->node(3).value, "x");
  EXPECT_EQ(c.end, 4);
}

TEST(ParserTest, DeclarationCommentsCdata) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!-- hi --><root><!-- inner "
      "--><x><![CDATA[a<b]]></x></root>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->node(1).value, "a<b");
}

TEST(ParserTest, SelfClosingAndEntities) {
  auto doc = Parse("<r><empty/><e>&lt;&amp;&gt;&quot;&apos;&#65;</e></r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->node(1).label, "empty");
  EXPECT_EQ(doc->node(2).value, "<&>\"'A");
}

TEST(ParserTest, WhitespaceOnlyTextIgnored) {
  auto doc = Parse("<r>\n  <a>1</a>\n  <b>2</b>\n</r>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->node(0).value, "");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("<a>").ok());
  EXPECT_FALSE(Parse("<a></b>").ok());
  EXPECT_FALSE(Parse("<a></a><b></b>").ok());
  EXPECT_FALSE(Parse("<a x=unquoted></a>").ok());
  EXPECT_FALSE(Parse("plain text").ok());
  EXPECT_FALSE(Parse("<a x=\"unterminated></a>").ok());
}

TEST(ParserTest, ErrorMentionsOffset) {
  auto doc = Parse("<a></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("offset"), std::string::npos);
}

TEST(SerializerTest, RoundTrip) {
  const std::string text =
      "<Security><Symbol>IBM&amp;Co</Symbol><SecInfo><Stock "
      "kind=\"common\"><Sector>Tech</Sector></Stock></SecInfo></Security>";
  auto doc = Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const std::string serialized = Serialize(*doc);
  auto reparsed = Parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(Serialize(*reparsed), serialized);
  EXPECT_EQ(reparsed->size(), doc->size());
  for (size_t i = 0; i < doc->size(); ++i) {
    EXPECT_EQ(reparsed->node(static_cast<NodeIndex>(i)).label,
              doc->node(static_cast<NodeIndex>(i)).label);
    EXPECT_EQ(reparsed->node(static_cast<NodeIndex>(i)).value,
              doc->node(static_cast<NodeIndex>(i)).value);
  }
}

TEST(SerializerTest, EscapesSpecials) {
  Document doc;
  const NodeIndex root = doc.AddRoot("a");
  doc.SetValue(root, "x<y&z>\"q\"");
  const std::string out = Serialize(doc);
  EXPECT_EQ(out, "<a>x&lt;y&amp;z&gt;&quot;q&quot;</a>");
}

TEST(SerializerTest, PrettyPrintingParsesBack) {
  auto doc = Parse("<r><a>1</a><b><c>2</c></b></r>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.pretty = true;
  const std::string pretty = Serialize(*doc, 0, options);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto reparsed = Parse(pretty);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->size(), doc->size());
}

TEST(SerializerTest, EmptyElementIsSelfClosed) {
  Document doc;
  const NodeIndex root = doc.AddRoot("r");
  doc.AddElement(root, "leaf");
  EXPECT_EQ(Serialize(doc), "<r><leaf/></r>");
}

}  // namespace
}  // namespace xia::xml
