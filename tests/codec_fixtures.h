// Golden fixtures for the byte formats: one fixed instance of every net
// payload, every WAL record type and the two checkpoint file payloads,
// each paired with its expected encoding as lower-case hex. The expected
// bytes were produced by the hand-written codecs that the field lists in
// net/wire.cc and wal/record.cc replaced; any change to them is a wire
// or on-disk format change.
//
// Optional tails appear both absent and present, and counted vectors
// both empty and non-empty. Shared by the golden-bytes tests and the
// differential decode check in fuzz_test.

#ifndef XIA_TESTS_CODEC_FIXTURES_H_
#define XIA_TESTS_CODEC_FIXTURES_H_

#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/status.h"
#include "wal/record.h"
#include "xpath/parser.h"

namespace xia::codec_fixtures {

inline std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

inline std::string FromHex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1]));
  }
  return out;
}

/// Uniform Encode/Decode access to each payload type, so a test can be
/// written once over every fixture.
template <class T>
struct Codec;

#define XIA_NET_CODEC(T)                                        \
  template <>                                                   \
  struct Codec<net::T> {                                        \
    static std::string Encode(const net::T& m) {                \
      return net::Encode##T(m);                                 \
    }                                                           \
    static Result<net::T> Decode(std::string_view payload) {    \
      return net::Decode##T(payload);                           \
    }                                                           \
  }
XIA_NET_CODEC(QueryRequest);
XIA_NET_CODEC(MutationRequest);
XIA_NET_CODEC(AdviseRequest);
XIA_NET_CODEC(ExplainRequest);
XIA_NET_CODEC(MetricsRequest);
XIA_NET_CODEC(ExecReply);
XIA_NET_CODEC(AdviseReply);
XIA_NET_CODEC(TextReply);
XIA_NET_CODEC(ErrorReply);
XIA_NET_CODEC(ReplSubscribeRequest);
XIA_NET_CODEC(ReplHelloPayload);
XIA_NET_CODEC(ReplSnapshotPayload);
XIA_NET_CODEC(ReplAckPayload);
XIA_NET_CODEC(ReplStatusRequest);
XIA_NET_CODEC(ReplStatusReply);
XIA_NET_CODEC(PromoteRequest);
XIA_NET_CODEC(PromoteReply);
XIA_NET_CODEC(FollowRequest);
XIA_NET_CODEC(CreateIndexRequest);
XIA_NET_CODEC(CreateIndexReply);
#undef XIA_NET_CODEC

/// Calls `visit(name, instance, hex)` for every net payload fixture.
template <class Visit>
void ForEachNetFixture(Visit&& visit) {
  using namespace net;
  visit("query",
        QueryRequest{"for $s in c('SDOC')/Security return $s", true, 250,
                     12.5},
        "26000000666f7220247320696e2063282753444f4327292f5365637572697479"
        "2072657475726e20247301fa0000000000000000002940");
  visit("mutation", MutationRequest{"delete from C where /a/b = 1", 3.0, 0},
        "1c00000064656c6574652066726f6d2043207768657265202f612f62203d2031"
        "0000000000000840");
  visit("mutation+epoch",
        MutationRequest{"insert into C values <a/>", 0, 0x0102030405060708ull},
        "19000000696e7365727420696e746f20432076616c756573203c612f3e000000"
        "00000000000807060504030201");
  visit("advise",
        AdviseRequest{"q1 | 2.0 | for $x in c('C')/A return $x\n",
                      5.5 * 1024 * 1024, "topdown-lite", 1.0 / 3.0, 4},
        "280000007131207c20322e30207c20666f7220247820696e206328274327292f"
        "412072657475726e2024780a00000000000056410c000000746f70646f776e2d"
        "6c697465555555555555d53f04000000");
  visit("explain", ExplainRequest{true, "delete from C where /A", 9},
        "011600000064656c6574652066726f6d2043207768657265202f410000000000"
        "002240");
  visit("metrics", MetricsRequest{MetricsFormat::kPrometheus}, "01");
  visit("exec", ExecReply{7, 1000, 64, 0.00123, {}},
        "0700000000000000e8030000000000004000000000000000d7868a71fe26543f"
        "00000000");
  visit("exec+rows",
        ExecReply{3, 0xFFFFFFFFFFull, 2, -0.5,
                  {"<A>1</A>", "", std::string("nul\0byte", 8)}},
        "0300000000000000ffffffffff0000000200000000000000000000000000e0bf"
        "03000000080000003c413e313c2f413e00000000080000006e756c0062797465");
  visit("advise_reply", AdviseReply{{}, 0, 1.0, 0, false},
        "000000000000000000000000000000000000f03f000000000000000000");
  visit("advise_reply+indexes",
        AdviseReply{{{"CREATE INDEX a ON C(/A) AS string", 4096, false},
                     {"CREATE INDEX b ON C(//B) AS numeric", 9999, true}},
                    14095,
                    2.25,
                    321,
                    true},
        "020000002100000043524541544520494e4445582061204f4e2043282f412920"
        "415320737472696e670010000000000000002300000043524541544520494e44"
        "45582062204f4e2043282f2f4229204153206e756d657269630f270000000000"
        "0001000000008087cb400000000000000240410100000000000001");
  visit("text", TextReply{"plan text\nline two"},
        "12000000706c616e20746578740a6c696e652074776f");
  visit("error", ErrorReply{StatusCode::kDeadlineExceeded, "over budget", ""},
        "0a0b0000006f76657220627564676574");
  visit("error+leader",
        ErrorReply{StatusCode::kReadOnly, "follower is read-only",
                   "127.0.0.1:7001"},
        "0e15000000666f6c6c6f77657220697320726561642d6f6e6c790e0000003132"
        "372e302e302e313a37303031");
  visit("repl_subscribe", ReplSubscribeRequest{"replica-7", 42, 0},
        "090000007265706c6963612d372a00000000000000");
  visit("repl_subscribe+epoch",
        ReplSubscribeRequest{"replica-8", 0x1234567890ABCDEFull, 3},
        "090000007265706c6963612d38efcdab90785634120300000000000000");
  visit("repl_hello", ReplHelloPayload{2, 17},
        "02000000000000001100000000000000");
  visit("repl_snapshot",
        ReplSnapshotPayload{5, true, false, "snap", "", 1, 0},
        "0500000000000000010004000000736e617000000000");
  visit("repl_snapshot+epoch",
        ReplSnapshotPayload{9, true, true, "s", std::string("c\0t", 3), 4, 8},
        "0900000000000000010101000000730300000063007404000000000000000800"
        "000000000000");
  visit("repl_ack", ReplAckPayload{77}, "4d00000000000000");
  visit("repl_status_request", ReplStatusRequest{}, "");
  visit("repl_status",
        ReplStatusReply{"follower", 1, 0, 12, 10, 12, "10.0.0.1:7000", {}},
        "08000000666f6c6c6f776572010000000000000000000000000000000c000000"
        "000000000a000000000000000c000000000000000d00000031302e302e302e31"
        "3a3730303000000000");
  visit("repl_status+followers",
        ReplStatusReply{"leader",
                        3,
                        100,
                        250,
                        200,
                        0,
                        "10.0.0.1:7000",
                        {{"f1", "10.0.0.2:5123", 249, true},
                         {"f2", "", 0, false}}},
        "060000006c656164657203000000000000006400000000000000fa0000000000"
        "0000c80000000000000000000000000000000d00000031302e302e302e313a37"
        "303030020000000200000066310d00000031302e302e302e323a35313233f900"
        "0000000000000102000000663200000000000000000000000000");
  visit("promote_request", PromoteRequest{}, "");
  visit("promote_reply", PromoteReply{4, 301},
        "04000000000000002d01000000000000");
  visit("follow", FollowRequest{"leader.example", 7001},
        "0e0000006c65616465722e6578616d706c65591b0000");
  visit("create_index",
        CreateIndexRequest{"sym", "SDOC", "/Security/Symbol", 1, true, false,
                           true},
        "0300000073796d0400000053444f43100000002f53656375726974792f53796d"
        "626f6c01010001");
  visit("create_index_reply",
        CreateIndexReply{123456, 7890123, true, 1.25, 0.03125, 42},
        "40e2010000000000cb6478000000000001000000000000f43f000000000000a0"
        "3f2a00000000000000");
}

template <>
struct Codec<wal::WalRecord> {
  static std::string Encode(const wal::WalRecord& r) {
    return wal::EncodeRecord(r);
  }
  static Result<wal::WalRecord> Decode(std::string_view payload) {
    return wal::DecodeRecord(payload);
  }
};

template <>
struct Codec<wal::Manifest> {
  static std::string Encode(const wal::Manifest& m) {
    return wal::EncodeManifest(m);
  }
  static Result<wal::Manifest> Decode(std::string_view payload) {
    return wal::DecodeManifest(payload);
  }
};

using Catalog = std::vector<wal::CatalogEntry>;

template <>
struct Codec<Catalog> {
  static std::string Encode(const Catalog& c) { return wal::EncodeCatalog(c); }
  static Result<Catalog> Decode(std::string_view payload) {
    return wal::DecodeCatalog(payload);
  }
};

inline wal::WalRecord WithLsn(wal::WalRecord r, uint64_t lsn) {
  r.lsn = lsn;
  return r;
}

inline xpath::IndexPattern Pattern(const char* path, xpath::ValueType type,
                                   bool structural) {
  xpath::IndexPattern p{*xpath::ParsePattern(path), type};
  p.structural = structural;
  return p;
}

/// Calls `visit(name, instance, hex)` for every WAL record type and the
/// checkpoint manifest and catalog payloads.
template <class Visit>
void ForEachWalFixture(Visit&& visit) {
  using wal::WalRecord;
  using xpath::ValueType;
  const uint64_t lsn = 0x0000000100000000ull;
  visit("create_collection", WithLsn(WalRecord::CreateCollection("C"), lsn + 1),
        "0100000001000000010100000043");
  visit("insert", WithLsn(WalRecord::Insert("C", "<a><b>1</b></a>"), lsn + 2),
        "02000000010000000201000000430f0000003c613e3c623e313c2f623e3c2f61"
        "3e");
  visit("statement",
        WithLsn(WalRecord::Statement("delete from C where /a/b = 1"), lsn + 3),
        "0300000001000000031c00000064656c6574652066726f6d2043207768657265"
        "202f612f62203d2031");
  visit("create_index",
        WithLsn(WalRecord::CreateIndex(
                    "idx", "C", Pattern("/a//b", ValueType::kNumeric, false)),
                lsn + 4),
        "0400000001000000040300000069647801000000430200000000010000006101"
        "01000000620100");
  visit("create_index+structural",
        WithLsn(WalRecord::CreateIndex(
                    "sidx", "SDOC",
                    Pattern("/Security/*", ValueType::kString, true)),
                lsn + 5),
        "05000000010000000404000000736964780400000053444f4302000000000800"
        "0000536563757269747900010000002a0001");
  visit("create_index+empty_path",
        WithLsn(WalRecord::CreateIndex("empty_path", "C", {}), lsn + 6),
        "0600000001000000040a000000656d7074795f70617468010000004300000000"
        "0000");
  visit("drop_index", WithLsn(WalRecord::DropIndex("idx"), lsn + 7),
        "07000000010000000503000000696478");
  visit("stats_refresh", WithLsn(WalRecord::StatsRefresh("C"), lsn + 8),
        "0800000001000000060100000043");
  visit("epoch_barrier", WithLsn(WalRecord::EpochBarrier(5), lsn + 9),
        "0900000001000000070500000000000000");
  visit("manifest", wal::Manifest{},
        "0000000000000000000001000000000000000000000000000000");
  visit("manifest+epoch", wal::Manifest{2, true, true, 2, 2},
        "0200000000000000010102000000000000000200000000000000");
  visit("catalog", Catalog{}, "00000000");
  visit("catalog+entries",
        Catalog{{"a_num", "C", Pattern("/a//b", ValueType::kNumeric, false)},
                {"b_struct", "C", Pattern("/a/*", ValueType::kString, true)}},
        "0200000005000000615f6e756d01000000430200000000010000006101010000"
        "0062010008000000625f73747275637401000000430200000000010000006100"
        "010000002a0001");
}

}  // namespace xia::codec_fixtures

#endif  // XIA_TESTS_CODEC_FIXTURES_H_
