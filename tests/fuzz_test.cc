// Randomized robustness tests: parsers must never crash or hang on
// arbitrary input, serialize/parse must round-trip structured data, and
// the persistence loaders must survive arbitrary mutation of their inputs
// — including with fault-injection points armed at low probability — and
// the wire and WAL payload decoders must decode mutated payloads exactly
// like the reference decoders they replaced.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "advisor/advisor.h"
#include "codec_fixtures.h"
#include "engine/query_parser.h"
#include "fault/deadline.h"
#include "fault/fault.h"
#include "reference_decoders.h"
#include "storage/snapshot.h"
#include "tpox/tpox_data.h"
#include "tpox/xmark.h"
#include "util/crc32.h"
#include "util/random.h"
#include "wal/wire.h"
#include "workload/workload_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia {
namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomGarbage(Random* rng, size_t max_len) {
  const std::string alphabet =
      "<>/=\"'ab c[]@*.{}$&;#\n\t\\!0123456789-_";
  std::string out;
  const size_t len = rng->Uniform(max_len);
  for (size_t i = 0; i < len; ++i) {
    out += alphabet[rng->Uniform(alphabet.size())];
  }
  return out;
}

TEST_P(FuzzTest, XmlParserNeverCrashes) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomGarbage(&rng, 120);
    auto doc = xml::Parse(input);
    if (doc.ok()) {
      // Whatever parsed must serialize and re-parse to the same node count.
      auto again = xml::Parse(xml::Serialize(*doc));
      ASSERT_TRUE(again.ok()) << input;
      EXPECT_EQ(again->size(), doc->size()) << input;
    }
  }
}

TEST_P(FuzzTest, XPathParserNeverCrashes) {
  Random rng(GetParam() * 13 + 1);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = RandomGarbage(&rng, 60);
    auto q = xpath::ParseQuery(input);
    if (q.ok()) {
      // Accepted paths round-trip.
      auto again = xpath::ParseQuery(q->ToString());
      ASSERT_TRUE(again.ok()) << input << " -> " << q->ToString();
      EXPECT_EQ(*again, *q) << input;
    }
  }
}

TEST_P(FuzzTest, StatementParserNeverCrashes) {
  Random rng(GetParam() * 29 + 5);
  const char* stems[] = {
      "for $s in c('S')", "insert into S ", "delete from S where ",
      "update S set ",    "",
  };
  for (int i = 0; i < 2000; ++i) {
    std::string input = stems[rng.Uniform(5)] + RandomGarbage(&rng, 80);
    (void)engine::ParseStatement(input);  // must return, not crash
  }
}

TEST_P(FuzzTest, WorkloadTextParserNeverCrashes) {
  Random rng(GetParam() * 97 + 11);
  for (int i = 0; i < 500; ++i) {
    (void)engine::ParseWorkloadText(RandomGarbage(&rng, 300));
  }
}

TEST_P(FuzzTest, GeneratedDocumentsRoundTrip) {
  Random rng(GetParam() * 7);
  for (size_t i = 0; i < 40; ++i) {
    std::vector<xml::Document> docs;
    docs.push_back(tpox::GenerateSecurityDocument(i, &rng));
    docs.push_back(tpox::GenerateOrderDocument(i, 100, &rng));
    docs.push_back(tpox::GenerateCustAccDocument(i, &rng));
    docs.push_back(tpox::GenerateXmarkItem(i, &rng));
    docs.push_back(tpox::GenerateXmarkAuction(i, 50, 50, &rng));
    docs.push_back(tpox::GenerateXmarkPerson(i, &rng));
    for (const auto& doc : docs) {
      for (bool pretty : {false, true}) {
        xml::SerializeOptions options;
        options.pretty = pretty;
        auto parsed = xml::Parse(xml::Serialize(doc, 0, options));
        ASSERT_TRUE(parsed.ok()) << parsed.status();
        ASSERT_EQ(parsed->size(), doc.size());
        for (size_t n = 0; n < doc.size(); ++n) {
          EXPECT_EQ(parsed->node(static_cast<xml::NodeIndex>(n)).label,
                    doc.node(static_cast<xml::NodeIndex>(n)).label);
          EXPECT_EQ(parsed->node(static_cast<xml::NodeIndex>(n)).value,
                    doc.node(static_cast<xml::NodeIndex>(n)).value);
        }
      }
    }
  }
}

// Applies `mutations` random byte edits (flip / insert / delete) to a
// copy of `bytes`.
std::string Mutate(const std::string& bytes, int mutations, Random* rng) {
  std::string out = bytes;
  for (int m = 0; m < mutations && !out.empty(); ++m) {
    switch (rng->Uniform(3)) {
      case 0:
        out[rng->Uniform(out.size())] = static_cast<char>(rng->Uniform(256));
        break;
      case 1:
        out.insert(out.begin() + rng->Uniform(out.size() + 1),
                   static_cast<char>(rng->Uniform(256)));
        break;
      default:
        out.erase(out.begin() + rng->Uniform(out.size()));
        break;
    }
  }
  return out;
}

// A v2 snapshot of one collection holding `doc`, encoded field by field
// (see storage/snapshot.h), with node `moved`'s parent replaced by
// `new_parent`. The section CRC covers the edited bytes, so only the
// loader's structural checks can reject it.
std::string SnapshotWithParent(const xml::Document& doc, xml::NodeIndex moved,
                               xml::NodeIndex new_parent) {
  std::string body;
  wal::PutString(&body, "C");
  wal::PutU32(&body, 1);  // one slot
  wal::PutU8(&body, 1);   // live
  wal::PutU32(&body, static_cast<uint32_t>(doc.size()));
  for (xml::NodeIndex n = 0; n < static_cast<xml::NodeIndex>(doc.size());
       ++n) {
    wal::PutU8(&body, doc.is_attribute(n) ? 1 : 0);
    wal::PutString(&body, doc.label(n).view());
    wal::PutString(&body, doc.value(n));
    wal::PutU32(&body,
                static_cast<uint32_t>(n == moved ? new_parent : doc.parent(n)));
  }
  std::string out = "XIASNAP2";
  wal::PutU32(&out, 1);  // one collection
  wal::PutU32(&out, static_cast<uint32_t>(body.size()));
  out += body;
  wal::PutU32(&out, Crc32(body));
  return out;
}

TEST_P(FuzzTest, MutatedSnapshotsNeverCrashOrPartiallyLoad) {
  Random rng(GetParam() * 131 + 17);
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  tpox::TpoxScale scale;
  scale.security_docs = 10;
  scale.order_docs = 10;
  scale.custacc_docs = 5;
  ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store, &stats).ok());
  std::stringstream buffer;
  ASSERT_TRUE(storage::SaveSnapshot(store, buffer).ok());
  const std::string clean = buffer.str();

  // Bound the whole fuzz loop: mutation coverage should never turn into a
  // hanging test, whatever the mutated bytes decode to.
  const fault::Deadline deadline = fault::Deadline::AfterSeconds(30);
  for (int trial = 0; trial < 300 && !deadline.expired(); ++trial) {
    const std::string bytes = Mutate(clean, 1 + rng.Uniform(8), &rng);
    std::stringstream in(bytes);
    storage::DocumentStore restored;
    const auto status = storage::LoadSnapshot(in, &restored);
    if (!status.ok()) {
      // A rejected snapshot must leave the target untouched.
      EXPECT_TRUE(restored.CollectionNames().empty()) << "trial " << trial;
    }
  }

  // A checksum-valid snapshot whose node hangs under a node that is no
  // longer on the open path (its subtree closed before the node) is not
  // pre-order: the load is rejected and leaves the target untouched.
  auto coll = store.GetCollection(tpox::kOrderCollection);
  ASSERT_TRUE(coll.ok());
  const xml::Document& doc =
      (*coll)->Get(static_cast<xml::DocId>(rng.Uniform(10)));
  std::vector<std::pair<xml::NodeIndex, xml::NodeIndex>> off_path;
  for (xml::NodeIndex n = 1; n < static_cast<xml::NodeIndex>(doc.size());
       ++n) {
    for (xml::NodeIndex j = 0; j < n; ++j) {
      if (doc.end(j) < n) off_path.emplace_back(n, j);
    }
  }
  ASSERT_FALSE(off_path.empty());
  const auto [moved, closed] = off_path[rng.Uniform(off_path.size())];
  {
    std::stringstream unchanged(
        SnapshotWithParent(doc, moved, doc.parent(moved)));
    storage::DocumentStore restored;
    ASSERT_TRUE(storage::LoadSnapshot(unchanged, &restored).ok());
  }
  std::stringstream in(SnapshotWithParent(doc, moved, closed));
  storage::DocumentStore restored;
  const auto status = storage::LoadSnapshot(in, &restored);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
  EXPECT_NE(status.message().find("node parent out of order"),
            std::string::npos)
      << status;
  EXPECT_TRUE(restored.CollectionNames().empty());
}

TEST_P(FuzzTest, MutatedWorkloadFilesNeverCrash) {
  Random rng(GetParam() * 151 + 23);
  engine::Workload w;
  auto stmt = engine::ParseStatement(
      "for $s in c('SDOC')/Security where $s/Symbol = \"SYM1\" return $s");
  ASSERT_TRUE(stmt.ok());
  w.push_back(std::move(*stmt));
  auto clean = workload::SerializeWorkload(w);
  ASSERT_TRUE(clean.ok());

  const fault::Deadline deadline = fault::Deadline::AfterSeconds(30);
  for (int trial = 0; trial < 500 && !deadline.expired(); ++trial) {
    (void)workload::DeserializeWorkload(
        Mutate(*clean, 1 + rng.Uniform(6), &rng));
  }
}

TEST_P(FuzzTest, PipelineUnderLowProbabilityFaults) {
  // With every fault point armed at 2%, repeated advise pipelines must
  // either succeed or fail with a clean Status — never crash, never leave
  // a partially loaded store.
  fault::ScopedFaultDisarm cleanup;
  fault::FaultRegistry& registry = fault::FaultRegistry::Global();
  registry.set_seed(GetParam() * 1000 + 7);
  for (const char* point : fault::kAllPoints) {
    registry.Arm(point, fault::FaultSpec::Probability(0.02));
  }

  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  tpox::TpoxScale scale;
  scale.security_docs = 15;
  scale.order_docs = 15;
  scale.custacc_docs = 5;
  ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store, &stats).ok());
  engine::Workload w;
  auto stmt = engine::ParseStatement(
      "for $sec in SECURITY('SDOC')/Security "
      "where $sec/Symbol = \"SYM000003\" return $sec");
  ASSERT_TRUE(stmt.ok());
  w.push_back(std::move(*stmt));

  const fault::Deadline deadline = fault::Deadline::AfterSeconds(60);
  int successes = 0;
  for (int trial = 0; trial < 40 && !deadline.expired(); ++trial) {
    std::stringstream buffer;
    if (!storage::SaveSnapshot(store, buffer).ok()) continue;
    storage::DocumentStore restored;
    if (!storage::LoadSnapshot(buffer, &restored).ok()) {
      EXPECT_TRUE(restored.CollectionNames().empty()) << "trial " << trial;
      continue;
    }
    storage::StatisticsCatalog restored_stats;
    for (const std::string& name : restored.CollectionNames()) {
      auto coll = restored.GetCollection(name);
      ASSERT_TRUE(coll.ok());
      restored_stats.RunStats(**coll);
    }
    advisor::IndexAdvisor advisor(&restored, &restored_stats);
    advisor::AdvisorOptions options;
    options.disk_budget_bytes = 1e6;
    auto rec = advisor.Recommend(w, options);
    if (rec.ok()) ++successes;
  }
  registry.set_seed(42);
  // 2% per hit still lets most runs through end to end.
  EXPECT_GT(successes, 0);
}

// ---------------------------------------------------------------------------
// Differential decode check: every production payload decoder against
// the hand-written reference decoder it replaced (reference_decoders.h),
// over mutations of every golden payload.

using codec_fixtures::Codec;

#define XIA_REFERENCE(T, decode)                                    \
  Result<T> ReferenceDecode(std::string_view payload, const T*) {   \
    return reference::decode(payload);                              \
  }
XIA_REFERENCE(net::QueryRequest, DecodeQueryRequest)
XIA_REFERENCE(net::MutationRequest, DecodeMutationRequest)
XIA_REFERENCE(net::AdviseRequest, DecodeAdviseRequest)
XIA_REFERENCE(net::ExplainRequest, DecodeExplainRequest)
XIA_REFERENCE(net::MetricsRequest, DecodeMetricsRequest)
XIA_REFERENCE(net::ExecReply, DecodeExecReply)
XIA_REFERENCE(net::AdviseReply, DecodeAdviseReply)
XIA_REFERENCE(net::TextReply, DecodeTextReply)
XIA_REFERENCE(net::ErrorReply, DecodeErrorReply)
XIA_REFERENCE(net::ReplSubscribeRequest, DecodeReplSubscribeRequest)
XIA_REFERENCE(net::ReplHelloPayload, DecodeReplHelloPayload)
XIA_REFERENCE(net::ReplSnapshotPayload, DecodeReplSnapshotPayload)
XIA_REFERENCE(net::ReplAckPayload, DecodeReplAckPayload)
XIA_REFERENCE(net::ReplStatusRequest, DecodeReplStatusRequest)
XIA_REFERENCE(net::ReplStatusReply, DecodeReplStatusReply)
XIA_REFERENCE(net::PromoteRequest, DecodePromoteRequest)
XIA_REFERENCE(net::PromoteReply, DecodePromoteReply)
XIA_REFERENCE(net::FollowRequest, DecodeFollowRequest)
XIA_REFERENCE(net::CreateIndexRequest, DecodeCreateIndexRequest)
XIA_REFERENCE(net::CreateIndexReply, DecodeCreateIndexReply)
XIA_REFERENCE(wal::WalRecord, DecodeRecord)
XIA_REFERENCE(wal::Manifest, DecodeManifest)
XIA_REFERENCE(codec_fixtures::Catalog, DecodeCatalog)
#undef XIA_REFERENCE

// Every decoded field, as a comparable tuple. Doubles compare by bits so
// a mutated NaN still compares equal to itself.
uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

auto Key(const net::AdviseReplyIndex& m) {
  return std::make_tuple(m.ddl, m.size_bytes, m.is_general);
}
auto Key(const net::ReplStatusFollower& m) {
  return std::make_tuple(m.follower_id, m.remote, m.acked_lsn, m.connected);
}
auto Key(const wal::CatalogEntry& m) {
  return std::make_tuple(m.name, m.collection, m.pattern.path, m.pattern.type,
                         m.pattern.structural);
}
template <class T>
auto Key(const std::vector<T>& v) {
  std::vector<decltype(Key(v.front()))> keys;
  for (const T& e : v) keys.push_back(Key(e));
  return keys;
}
auto Key(const net::QueryRequest& m) {
  return std::make_tuple(m.statement, m.materialize_rows, m.max_rows,
                         Bits(m.budget_ms));
}
auto Key(const net::MutationRequest& m) {
  return std::make_tuple(m.statement, Bits(m.budget_ms), m.expected_epoch);
}
auto Key(const net::AdviseRequest& m) {
  return std::make_tuple(m.workload_text, Bits(m.disk_budget_bytes),
                         m.algorithm, Bits(m.budget_ms), m.threads);
}
auto Key(const net::ExplainRequest& m) {
  return std::make_tuple(m.analyze, m.statement, Bits(m.budget_ms));
}
auto Key(const net::MetricsRequest& m) { return std::make_tuple(m.format); }
auto Key(const net::ExecReply& m) {
  return std::make_tuple(m.result_count, m.docs_examined,
                         m.index_entries_scanned, Bits(m.wall_seconds),
                         m.rows);
}
auto Key(const net::AdviseReply& m) {
  return std::make_tuple(Key(m.indexes), Bits(m.total_size_bytes),
                         Bits(m.est_speedup), m.optimizer_calls, m.partial);
}
auto Key(const net::TextReply& m) { return std::make_tuple(m.text); }
auto Key(const net::ErrorReply& m) {
  return std::make_tuple(m.code, m.message, m.leader_endpoint);
}
auto Key(const net::ReplSubscribeRequest& m) {
  return std::make_tuple(m.follower_id, m.start_lsn, m.epoch);
}
auto Key(const net::ReplHelloPayload& m) {
  return std::make_tuple(m.leader_epoch, m.epoch_start_lsn);
}
auto Key(const net::ReplSnapshotPayload& m) {
  return std::make_tuple(m.checkpoint_lsn, m.has_snapshot, m.has_catalog,
                         m.snapshot_bytes, m.catalog_bytes, m.repl_epoch,
                         m.epoch_start_lsn);
}
auto Key(const net::ReplAckPayload& m) { return std::make_tuple(m.acked_lsn); }
auto Key(const net::ReplStatusRequest&) { return std::make_tuple(); }
auto Key(const net::ReplStatusReply& m) {
  return std::make_tuple(m.role, m.repl_epoch, m.epoch_start_lsn,
                         m.durable_lsn, m.checkpoint_lsn, m.applied_lsn,
                         m.leader_endpoint, Key(m.followers));
}
auto Key(const net::PromoteRequest&) { return std::make_tuple(); }
auto Key(const net::PromoteReply& m) {
  return std::make_tuple(m.epoch, m.barrier_lsn);
}
auto Key(const net::FollowRequest& m) {
  return std::make_tuple(m.host, m.port);
}
auto Key(const net::CreateIndexRequest& m) {
  return std::make_tuple(m.name, m.collection, m.pattern, m.value_type,
                         m.structural, m.is_virtual, m.online);
}
auto Key(const net::CreateIndexReply& m) {
  return std::make_tuple(m.entry_count, m.size_bytes, m.online,
                         Bits(m.build_seconds), Bits(m.stall_seconds),
                         m.delta_ops);
}
auto Key(const wal::WalRecord& m) {
  return std::make_tuple(m.lsn, m.type, m.collection, m.text, m.name,
                         m.pattern_path, m.value_type, m.structural, m.epoch);
}
auto Key(const wal::Manifest& m) {
  return std::make_tuple(m.checkpoint_lsn, m.has_snapshot, m.has_catalog,
                         m.repl_epoch, m.epoch_start_lsn);
}

/// Empty when the production decoder agrees with the reference on
/// `input`; otherwise what differed.
template <class T>
std::string Disagreement(std::string_view input) {
  const Result<T> got = Codec<T>::Decode(input);
  std::optional<Result<T>> want;
  try {
    want.emplace(ReferenceDecode(input, static_cast<const T*>(nullptr)));
  } catch (const reference::OversizedCount&) {
    // The one intended divergence: the reference would allocate the
    // count; the production decoder must reject it as malformed (the
    // checkpoint files report malformed payloads as data loss).
    const bool checkpoint_file =
        std::is_same_v<T, wal::Manifest> ||
        std::is_same_v<T, codec_fixtures::Catalog>;
    const StatusCode malformed =
        checkpoint_file ? StatusCode::kDataLoss : StatusCode::kParseError;
    if (got.status().code() == malformed) return "";
    return "oversized count decoded as " + got.status().ToString();
  }
  if (got.ok() != want->ok()) {
    return "accepts differ: got " + got.status().ToString() + ", want " +
           want->status().ToString();
  }
  if (!got.ok()) {
    if (got.status().code() == want->status().code()) return "";
    return "codes differ: got " + got.status().ToString() + ", want " +
           want->status().ToString();
  }
  return Key(*got) == Key(**want) ? "" : "decoded values differ";
}

/// Truncation at every length, flips of every byte, appended junk, a u32
/// 0xFFFFFFFF and a u32 0 spliced over every offset (hence over every
/// count field), and `random` seeded multi-byte corruptions.
std::vector<std::string> Mutations(const std::string& payload, Random* rng,
                                   int random) {
  std::vector<std::string> out;
  for (size_t len = 0; len < payload.size(); ++len) {
    out.push_back(payload.substr(0, len));
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string m = payload;
      m[i] = static_cast<char>(m[i] ^ mask);
      out.push_back(std::move(m));
    }
  }
  for (const std::string& junk :
       {std::string(1, '\0'), std::string(1, '\1'), std::string("junk"),
        std::string(8, '\2'), std::string(16, '\xff')}) {
    out.push_back(payload + junk);
  }
  for (size_t i = 0; i + 4 <= payload.size(); ++i) {
    for (const char fill : {'\xff', '\0'}) {
      std::string m = payload;
      m.replace(i, 4, 4, fill);
      out.push_back(std::move(m));
    }
  }
  for (int r = 0; r < random && !payload.empty(); ++r) {
    std::string m = payload;
    const size_t edits = 1 + rng->Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      m[rng->Uniform(m.size())] = static_cast<char>(rng->Uniform(256));
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST_P(FuzzTest, CodecsDecodeLikeTheReferenceDecoders) {
  Random rng(GetParam());
  size_t checked = 0;
  const auto check = [&](const char* name, const auto& fixture,
                         const char* hex) {
    using T = std::decay_t<decltype(fixture)>;
    const std::string golden = codec_fixtures::FromHex(hex);
    ASSERT_EQ(Codec<T>::Encode(fixture), golden) << name;
    for (const std::string& input : Mutations(golden, &rng, 64)) {
      const std::string diff = Disagreement<T>(input);
      ASSERT_TRUE(diff.empty()) << name << " input "
                                << codec_fixtures::ToHex(input) << ": "
                                << diff;
      ++checked;
    }
  };
  codec_fixtures::ForEachNetFixture(check);
  codec_fixtures::ForEachWalFixture(check);
  EXPECT_GT(checked, 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace xia
