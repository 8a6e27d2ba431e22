// Wire-format tests for xia::net: frame/payload roundtrips, incremental
// stream decoding, and the satellite robustness guarantee — flip or
// truncate ANY byte of a framed request and the reader must never yield
// a decoded frame (same discipline as the WAL's torn-frame tests).

#include "net/wire.h"

#include <string>
#include <type_traits>
#include <vector>

#include "codec_fixtures.h"
#include "gtest/gtest.h"
#include "util/status.h"

namespace xia::net {
namespace {

Frame MustPoll(FrameReader* reader) {
  Frame frame;
  std::string error;
  const FrameReader::Next next = reader->Poll(&frame, &error);
  EXPECT_EQ(next, FrameReader::Next::kFrame) << error;
  return frame;
}

TEST(NetWireTest, FrameRoundtrip) {
  const std::string encoded =
      EncodeFrame(MsgType::kQuery, 0xDEADBEEFCAFEull, "hello payload");
  ASSERT_GE(encoded.size(), kHeaderBytes);

  FrameReader reader;
  reader.Feed(encoded);
  const Frame frame = MustPoll(&reader);
  EXPECT_EQ(frame.type, MsgType::kQuery);
  EXPECT_EQ(frame.request_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(frame.payload, "hello payload");
  EXPECT_EQ(reader.buffered(), 0u);

  Frame next;
  std::string error;
  EXPECT_EQ(reader.Poll(&next, &error), FrameReader::Next::kNeedMore);
}

TEST(NetWireTest, EmptyPayloadFrame) {
  FrameReader reader;
  reader.Feed(EncodeFrame(MsgType::kPing, 7, ""));
  const Frame frame = MustPoll(&reader);
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetWireTest, IncrementalFeedByteByByte) {
  const std::string encoded = EncodeFrame(MsgType::kAdvise, 42, "abcdefgh");
  FrameReader reader;
  Frame frame;
  std::string error;
  for (size_t i = 0; i + 1 < encoded.size(); ++i) {
    reader.Feed(std::string_view(&encoded[i], 1));
    ASSERT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kNeedMore)
        << "yielded a frame after only " << (i + 1) << " bytes";
  }
  reader.Feed(std::string_view(&encoded[encoded.size() - 1], 1));
  ASSERT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kFrame) << error;
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, "abcdefgh");
}

TEST(NetWireTest, MultipleFramesInOneBuffer) {
  std::string stream;
  for (uint64_t id = 1; id <= 5; ++id) {
    stream += EncodeFrame(MsgType::kPing, id, std::string(id, 'x'));
  }
  FrameReader reader;
  reader.Feed(stream);
  for (uint64_t id = 1; id <= 5; ++id) {
    const Frame frame = MustPoll(&reader);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.payload.size(), id);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

// The satellite guarantee: flipping a single bit at ANY offset of a
// framed request — header, request id, length, CRC, or payload — must
// never let the reader hand a frame to the dispatcher. The CRC is
// computed over the whole frame precisely for this (a payload-only CRC
// would let a flipped request_id through as a "valid" other request).
TEST(NetWireTest, ByteFlipAtEveryOffsetNeverYieldsFrame) {
  const std::string encoded =
      EncodeFrame(MsgType::kMutation, 99,
                  EncodeMutationRequest(MutationRequest{
                      "insert into C values <Doc><A>1</A></Doc>", 0}));
  for (size_t offset = 0; offset < encoded.size(); ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::string corrupt = encoded;
    corrupt[offset] ^= 0x01;

    FrameReader reader;
    reader.Feed(corrupt);
    // Pad generously: a flip in payload_len can make the frame "longer",
    // so give the reader enough extra bytes to complete that bogus
    // length wherever it stays under the payload cap.
    reader.Feed(std::string(512, '\0'));

    Frame frame;
    std::string error;
    const FrameReader::Next next = reader.Poll(&frame, &error);
    ASSERT_NE(next, FrameReader::Next::kFrame)
        << "corrupt frame decoded as type " << static_cast<int>(frame.type);
  }
}

TEST(NetWireTest, TruncationAtEveryLengthNeverYieldsFrame) {
  const std::string encoded = EncodeFrame(
      MsgType::kQuery, 3,
      EncodeQueryRequest(QueryRequest{"for $x in c('C')/A return $x", true,
                                      10, 0}));
  for (size_t len = 0; len < encoded.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    FrameReader reader;
    reader.Feed(encoded.substr(0, len));
    Frame frame;
    std::string error;
    // A pure prefix is indistinguishable from a slow sender: the reader
    // must wait, not decode and not flag corruption.
    EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kNeedMore);
  }
}

TEST(NetWireTest, BadMagicVersionFlagsTypeAreSticky) {
  const std::string good = EncodeFrame(MsgType::kPing, 1, "p");

  const auto expect_bad = [&](size_t offset, char value,
                              const std::string& label) {
    SCOPED_TRACE(label);
    std::string corrupt = good;
    corrupt[offset] = value;
    FrameReader reader;
    reader.Feed(corrupt);
    Frame frame;
    std::string error;
    EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kBad);
    EXPECT_FALSE(error.empty());
    // Sticky: even a pristine frame afterwards must not resynchronize.
    reader.Feed(good);
    EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kBad);
  };

  expect_bad(0, 'X', "magic");
  expect_bad(4, 0x7F, "version");
  expect_bad(5, 0x3F, "unknown type");
  expect_bad(6, 0x01, "nonzero flags");
}

TEST(NetWireTest, OversizedPayloadLengthIsBadNotAllocation) {
  std::string corrupt = EncodeFrame(MsgType::kPing, 1, "p");
  // payload_len lives at offset 16..19 (LE); claim ~4 GB.
  corrupt[16] = static_cast<char>(0xFF);
  corrupt[17] = static_cast<char>(0xFF);
  corrupt[18] = static_cast<char>(0xFF);
  corrupt[19] = static_cast<char>(0x7F);
  FrameReader reader;
  reader.Feed(corrupt);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.Poll(&frame, &error), FrameReader::Next::kBad);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(NetWireTest, QueryRequestRoundtrip) {
  QueryRequest req;
  req.statement = "for $s in c('SDOC')/Security return $s";
  req.materialize_rows = true;
  req.max_rows = 123;
  req.budget_ms = 1.5;
  const auto decoded = DecodeQueryRequest(EncodeQueryRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->statement, req.statement);
  EXPECT_TRUE(decoded->materialize_rows);
  EXPECT_EQ(decoded->max_rows, 123u);
  EXPECT_DOUBLE_EQ(decoded->budget_ms, 1.5);
}

TEST(NetWireTest, AdviseRequestRoundtrip) {
  AdviseRequest req;
  req.workload_text = "q1 | 2.0 | for $x in c('C')/A return $x\n";
  req.disk_budget_bytes = 5.5 * 1024 * 1024;
  req.algorithm = "topdown-lite";
  req.budget_ms = 250;
  req.threads = 4;
  const auto decoded = DecodeAdviseRequest(EncodeAdviseRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->workload_text, req.workload_text);
  EXPECT_DOUBLE_EQ(decoded->disk_budget_bytes, req.disk_budget_bytes);
  EXPECT_EQ(decoded->algorithm, "topdown-lite");
  EXPECT_DOUBLE_EQ(decoded->budget_ms, 250.0);
  EXPECT_EQ(decoded->threads, 4u);
}

TEST(NetWireTest, ExecReplyRoundtripWithRows) {
  ExecReply reply;
  reply.result_count = 7;
  reply.docs_examined = 1000;
  reply.index_entries_scanned = 64;
  reply.wall_seconds = 0.00123;
  reply.rows = {"<A>1</A>", "", std::string(1000, 'z')};
  const auto decoded = DecodeExecReply(EncodeExecReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->result_count, 7u);
  EXPECT_EQ(decoded->docs_examined, 1000u);
  EXPECT_EQ(decoded->index_entries_scanned, 64u);
  EXPECT_DOUBLE_EQ(decoded->wall_seconds, 0.00123);
  EXPECT_EQ(decoded->rows, reply.rows);
}

TEST(NetWireTest, AdviseReplyRoundtrip) {
  AdviseReply reply;
  reply.indexes.push_back(AdviseReplyIndex{"CREATE INDEX a ...", 4096, false});
  reply.indexes.push_back(AdviseReplyIndex{"CREATE INDEX b ...", 9999, true});
  reply.total_size_bytes = 14095;
  reply.est_speedup = 2.25;
  reply.optimizer_calls = 321;
  reply.partial = true;
  const auto decoded = DecodeAdviseReply(EncodeAdviseReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->indexes.size(), 2u);
  EXPECT_EQ(decoded->indexes[0].ddl, "CREATE INDEX a ...");
  EXPECT_EQ(decoded->indexes[1].size_bytes, 9999u);
  EXPECT_TRUE(decoded->indexes[1].is_general);
  EXPECT_DOUBLE_EQ(decoded->est_speedup, 2.25);
  EXPECT_EQ(decoded->optimizer_calls, 321u);
  EXPECT_TRUE(decoded->partial);
}

TEST(NetWireTest, ExplainMetricsTextRoundtrips) {
  ExplainRequest explain;
  explain.analyze = true;
  explain.statement = "delete from C where /A";
  explain.budget_ms = 9;
  const auto e = DecodeExplainRequest(EncodeExplainRequest(explain));
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->analyze);
  EXPECT_EQ(e->statement, explain.statement);

  MetricsRequest metrics;
  metrics.format = MetricsFormat::kPrometheus;
  const auto m = DecodeMetricsRequest(EncodeMetricsRequest(metrics));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->format, MetricsFormat::kPrometheus);

  const auto t = DecodeTextReply(EncodeTextReply(TextReply{"plan text"}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->text, "plan text");
}

TEST(NetWireTest, ErrorReplyCarriesStatus) {
  const ErrorReply reply{StatusCode::kDeadlineExceeded, "over budget"};
  const auto decoded = DecodeErrorReply(EncodeErrorReply(reply));
  ASSERT_TRUE(decoded.ok());
  const Status status = ErrorReplyToStatus(*decoded);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("over budget"), std::string::npos);

  // A kError frame claiming kOk is itself a protocol violation.
  EXPECT_EQ(ErrorReplyToStatus(ErrorReply{StatusCode::kOk, "?"}).code(),
            StatusCode::kInternal);
}

TEST(NetWireTest, MalformedPayloadsAreParseErrors) {
  // Truncate every decodable payload at every length: decoders must
  // return ParseError, never crash or accept.
  const std::string payloads[] = {
      EncodeQueryRequest(QueryRequest{"stmt", true, 5, 1}),
      EncodeMutationRequest(MutationRequest{"stmt", 2}),
      EncodeAdviseRequest(AdviseRequest{"w", 100, "greedy", 3, 1}),
      EncodeExplainRequest(ExplainRequest{true, "stmt", 4}),
      EncodeMetricsRequest(MetricsRequest{MetricsFormat::kTable}),
      EncodeExecReply(ExecReply{1, 2, 3, 0.5, {"r"}}),
      EncodeAdviseReply(AdviseReply{{{"d", 1, false}}, 1, 2, 3, false}),
      EncodeErrorReply(ErrorReply{StatusCode::kInternal, "m"}),
  };
  const auto try_all = [](std::string_view payload) {
    (void)DecodeQueryRequest(payload);
    (void)DecodeMutationRequest(payload);
    (void)DecodeAdviseRequest(payload);
    (void)DecodeExplainRequest(payload);
    (void)DecodeMetricsRequest(payload);
    (void)DecodeExecReply(payload);
    (void)DecodeAdviseReply(payload);
    (void)DecodeErrorReply(payload);
  };
  for (const std::string& payload : payloads) {
    for (size_t len = 0; len < payload.size(); ++len) {
      try_all(std::string_view(payload.data(), len));
    }
    // Trailing junk must be rejected too (strict AtEnd).
    const std::string extended = payload + "junk";
    EXPECT_FALSE(DecodeQueryRequest(extended).ok() &&
                 DecodeMutationRequest(extended).ok());
  }
  // Spot-check a truncated decode's code.
  const std::string query = EncodeQueryRequest(QueryRequest{"s", false, 1, 0});
  const auto truncated =
      DecodeQueryRequest(std::string_view(query.data(), query.size() - 1));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kParseError);
}

TEST(NetWireTest, ReplSubscribeRoundtrip) {
  ReplSubscribeRequest req;
  req.follower_id = "replica-7";
  req.start_lsn = 0x1234567890ABCDEFull;
  const auto decoded =
      DecodeReplSubscribeRequest(EncodeReplSubscribeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->follower_id, "replica-7");
  EXPECT_EQ(decoded->start_lsn, 0x1234567890ABCDEFull);
}

TEST(NetWireTest, ReplSnapshotRoundtrip) {
  ReplSnapshotPayload snap;
  snap.checkpoint_lsn = 42;
  snap.has_snapshot = true;
  snap.has_catalog = true;
  snap.snapshot_bytes = std::string(10000, '\x01') + "tail";
  snap.catalog_bytes = "CATALOG\x00\x7f bytes";
  const auto decoded =
      DecodeReplSnapshotPayload(EncodeReplSnapshotPayload(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->checkpoint_lsn, 42u);
  EXPECT_TRUE(decoded->has_snapshot);
  EXPECT_TRUE(decoded->has_catalog);
  EXPECT_EQ(decoded->snapshot_bytes, snap.snapshot_bytes);
  EXPECT_EQ(decoded->catalog_bytes, snap.catalog_bytes);
}

TEST(NetWireTest, ReplAckRoundtrip) {
  const auto decoded =
      DecodeReplAckPayload(EncodeReplAckPayload(ReplAckPayload{77}));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->acked_lsn, 77u);
}

TEST(NetWireTest, ReplPayloadsRejectTruncationAndJunk) {
  // Each payload against its own decoder: every strict prefix and any
  // trailing junk must be a ParseError (a prefix of one payload can be a
  // structurally valid *other* payload, so no cross-decoder claims).
  const auto check = [](const std::string& payload, auto decode) {
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(decode(std::string_view(payload.data(), len)).ok())
          << "truncated to " << len;
    }
    EXPECT_FALSE(decode(payload + "x").ok()) << "trailing junk";
  };
  check(EncodeReplSubscribeRequest(ReplSubscribeRequest{"f", 9}),
        [](std::string_view p) { return DecodeReplSubscribeRequest(p); });
  check(EncodeReplSnapshotPayload(ReplSnapshotPayload{5, true, true, "s", "c"}),
        [](std::string_view p) { return DecodeReplSnapshotPayload(p); });
  check(EncodeReplAckPayload(ReplAckPayload{3}),
        [](std::string_view p) { return DecodeReplAckPayload(p); });
}

TEST(NetWireTest, ReplTypesAreKnownAndOnlySubscribeIsARequest) {
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MsgType::kReplSubscribe)));
  for (const MsgType type :
       {MsgType::kReplFrame, MsgType::kReplSnapshot, MsgType::kReplAck}) {
    EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(type)));
    // Known to the frame reader: a stream frame of this type parses.
    FrameReader reader;
    reader.Feed(EncodeFrame(type, 0, "record-bytes"));
    const Frame frame = MustPoll(&reader);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.request_id, 0u);
    EXPECT_EQ(frame.payload, "record-bytes");
  }
  EXPECT_STREQ(MsgTypeName(MsgType::kReplSubscribe), "repl_subscribe");
  EXPECT_STREQ(MsgTypeName(MsgType::kReplFrame), "repl_frame");
  EXPECT_STREQ(MsgTypeName(MsgType::kReplSnapshot), "repl_snapshot");
  EXPECT_STREQ(MsgTypeName(MsgType::kReplAck), "repl_ack");
}

TEST(NetWireTest, CreateIndexRoundtrip) {
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MsgType::kCreateIndex)));
  EXPECT_STREQ(MsgTypeName(MsgType::kCreateIndex), "create_index");

  CreateIndexRequest req;
  req.name = "sym";
  req.collection = "SDOC";
  req.pattern = "/Security/Symbol";
  req.value_type = 1;
  req.structural = true;
  req.is_virtual = false;
  req.online = true;
  const auto decoded = DecodeCreateIndexRequest(EncodeCreateIndexRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name, "sym");
  EXPECT_EQ(decoded->collection, "SDOC");
  EXPECT_EQ(decoded->pattern, "/Security/Symbol");
  EXPECT_EQ(decoded->value_type, 1);
  EXPECT_TRUE(decoded->structural);
  EXPECT_FALSE(decoded->is_virtual);
  EXPECT_TRUE(decoded->online);

  CreateIndexReply reply;
  reply.entry_count = 123456;
  reply.size_bytes = 7890123;
  reply.online = true;
  reply.build_seconds = 1.25;
  reply.stall_seconds = 0.03125;
  reply.delta_ops = 42;
  const auto reply2 = DecodeCreateIndexReply(EncodeCreateIndexReply(reply));
  ASSERT_TRUE(reply2.ok()) << reply2.status();
  EXPECT_EQ(reply2->entry_count, 123456u);
  EXPECT_EQ(reply2->size_bytes, 7890123u);
  EXPECT_TRUE(reply2->online);
  EXPECT_DOUBLE_EQ(reply2->build_seconds, 1.25);
  EXPECT_DOUBLE_EQ(reply2->stall_seconds, 0.03125);
  EXPECT_EQ(reply2->delta_ops, 42u);
}

TEST(NetWireTest, CreateIndexRejectsMalformedPayloads) {
  CreateIndexRequest req;
  req.name = "sym";
  req.collection = "SDOC";
  req.pattern = "/Security/Symbol";
  const std::string good = EncodeCreateIndexRequest(req);
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        DecodeCreateIndexRequest(std::string_view(good.data(), len)).ok());
  }
  EXPECT_FALSE(DecodeCreateIndexRequest(good + "junk").ok());
  // Semantic rejects: empty fields, out-of-range enums/flags, and the
  // virtual+online combination (builds nothing to build online).
  CreateIndexRequest bad = req;
  bad.name.clear();
  EXPECT_FALSE(DecodeCreateIndexRequest(EncodeCreateIndexRequest(bad)).ok());
  bad = req;
  bad.value_type = 2;
  EXPECT_FALSE(DecodeCreateIndexRequest(EncodeCreateIndexRequest(bad)).ok());
  bad = req;
  bad.is_virtual = true;
  bad.online = true;
  EXPECT_FALSE(DecodeCreateIndexRequest(EncodeCreateIndexRequest(bad)).ok());

  const std::string reply = EncodeCreateIndexReply(CreateIndexReply{});
  for (size_t len = 0; len < reply.size(); ++len) {
    EXPECT_FALSE(
        DecodeCreateIndexReply(std::string_view(reply.data(), len)).ok());
  }
  EXPECT_FALSE(DecodeCreateIndexReply(reply + "x").ok());
}

// Every payload encodes to exactly the bytes the protocol has always
// used, and decodes back to an equal encoding.
TEST(NetWireTest, GoldenPayloadBytes) {
  using codec_fixtures::Codec;
  using codec_fixtures::ToHex;
  codec_fixtures::ForEachNetFixture(
      [](const char* name, const auto& m, const char* hex) {
        using T = std::decay_t<decltype(m)>;
        SCOPED_TRACE(name);
        const std::string bytes = Codec<T>::Encode(m);
        EXPECT_EQ(ToHex(bytes), hex);
        const auto decoded = Codec<T>::Decode(bytes);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(Codec<T>::Encode(*decoded), bytes);
      });
  EXPECT_EQ(codec_fixtures::ToHex(EncodeFrame(
                MsgType::kQuery, 0x0102030405060708ull, "payload")),
            "4e4554310102000008070605040302010700000025f4f497"
            "7061796c6f6164");
}

// A count that cannot fit in the bytes left is a parse error, checked
// before anything is allocated.
TEST(NetWireTest, ImpossibleCountsAreParseErrors) {
  std::string exec = EncodeExecReply(ExecReply{1, 2, 3, 0.5, {}});
  ASSERT_EQ(exec.size(), 36u);
  exec.replace(32, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeExecReply(exec).status().code(), StatusCode::kParseError);

  std::string advise = EncodeAdviseReply(AdviseReply{});
  advise.replace(0, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeAdviseReply(advise).status().code(),
            StatusCode::kParseError);

  ReplStatusReply status;
  status.role = "leader";
  std::string repl = EncodeReplStatusReply(status);
  repl.replace(repl.size() - 4, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(DecodeReplStatusReply(repl).status().code(),
            StatusCode::kParseError);

  // One row more than the bytes left can hold (4 bytes per empty row).
  std::string rows = EncodeExecReply(ExecReply{0, 0, 0, 0, {"", ""}});
  rows[32] = 3;
  EXPECT_EQ(DecodeExecReply(rows).status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace xia::net
