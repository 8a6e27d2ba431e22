// Online (non-blocking) index builds, DESIGN §16: the build scans a
// snapshot bound under shared locks while concurrent mutators append to a
// side log, then replays the delta and swaps inside one short exclusive
// section. The resulting index must be *bit-identical* (ContentDigest) to
// an offline build over the same final state, with and without a
// mutation storm.
//
// Registered in the TSAN and ASAN gates (tests/CMakeLists.txt): the
// builder's shared-lock scan racing exclusive-lock mutators is exactly
// the interleaving a data race would corrupt.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/index.h"
#include "storage/online_build.h"
#include "storage/statistics.h"
#include "util/random.h"
#include "xml/document.h"
#include "xpath/parser.h"

namespace xia::storage {
namespace {

xml::Document MakeDoc(int seq) {
  xml::Document doc;
  const auto root = doc.AddRoot("Security");
  doc.AddElement(root, "Symbol", "SYM" + std::to_string(seq));
  doc.AddElement(root, "Yield", std::to_string((seq % 97) / 10.0));
  return doc;
}

xpath::IndexPattern SymbolPattern() {
  auto path = xpath::ParsePattern("/Security/Symbol");
  EXPECT_TRUE(path.ok()) << path.status();
  return xpath::IndexPattern{*path, xpath::ValueType::kString};
}

class OnlineBuildTest : public ::testing::Test {
 protected:
  void SeedCollection(int docs) {
    Collection* coll = *store_.CreateCollection("C");
    for (int i = 0; i < docs; ++i) coll->Add(MakeDoc(i));
    stats_.RunStats(*coll);
  }

  /// Offline rebuild over the current store state; the digest oracle.
  uint32_t OfflineDigest(const xpath::IndexPattern& pattern) {
    PathValueIndex oracle("oracle", "C", pattern);
    Collection* coll = *store_.GetCollection("C");
    oracle.Build(*coll);
    return oracle.ContentDigest();
  }

  DocumentStore store_;
  StatisticsCatalog stats_;
  Catalog catalog_{&store_, &stats_};
  std::shared_mutex db_mu_;
};

TEST_F(OnlineBuildTest, MatchesOfflineOnQuiescentStore) {
  SeedCollection(500);
  OnlineBuildReport report;
  auto built = BuildIndexOnline(&catalog_, &db_mu_, "sym", "C",
                                SymbolPattern(), {}, nullptr, &report);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(report.docs_scanned, 500u);
  EXPECT_EQ(report.delta_ops_applied, 0u);
  EXPECT_EQ(catalog_.attached_side_logs(), 0u);
  EXPECT_EQ((*built)->physical->ContentDigest(),
            OfflineDigest(SymbolPattern()));
}

TEST_F(OnlineBuildTest, DuplicateNameIsRejectedBeforeAttaching) {
  SeedCollection(10);
  ASSERT_TRUE(catalog_.CreateIndex("sym", "C", SymbolPattern()).ok());
  auto dup =
      BuildIndexOnline(&catalog_, &db_mu_, "sym", "C", SymbolPattern());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.attached_side_logs(), 0u);
}

// The tentpole correctness claim: an index built online *while the
// collection is being mutated* equals an offline rebuild of the final
// state, because every mutation the scan missed arrives via the side log
// and the installed index is maintained by the normal notify path after
// the swap.
TEST_F(OnlineBuildTest, DigestMatchesOfflineUnderMutationStorm) {
  SeedCollection(2000);
  Collection* coll = *store_.GetCollection("C");

  std::atomic<bool> build_done{false};
  std::atomic<int> next_seq{100000};
  const int kMutators = 3;
  std::vector<std::thread> mutators;
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&, t] {
      Random rng(1234 + t);
      // Keep mutating until the build finished, then a few more ops to
      // prove the installed index is maintained post-swap.
      for (int tail = 0; tail < 50;) {
        if (build_done.load(std::memory_order_acquire)) ++tail;
        std::unique_lock<std::shared_mutex> lock(db_mu_);
        if (rng.Uniform(3) != 0) {
          const int seq = next_seq.fetch_add(1, std::memory_order_relaxed);
          const xml::DocId id = coll->Add(MakeDoc(seq));
          catalog_.NotifyInsert("C", id, coll->Get(id));
        } else {
          const xml::DocId bound = coll->id_bound();
          const xml::DocId id =
              static_cast<xml::DocId>(rng.Uniform(bound ? bound : 1));
          if (coll->IsLive(id)) {
            catalog_.NotifyRemove("C", id, coll->Get(id));
            ASSERT_TRUE(coll->Remove(id).ok());
          }
        }
      }
    });
  }

  OnlineBuildOptions options;
  options.scan_chunk_docs = 128;  // many lock acquisitions => real overlap
  OnlineBuildReport report;
  auto built = BuildIndexOnline(&catalog_, &db_mu_, "sym", "C",
                                SymbolPattern(), options, nullptr, &report);
  build_done.store(true, std::memory_order_release);
  for (auto& m : mutators) m.join();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(catalog_.attached_side_logs(), 0u);
  EXPECT_GT(report.docs_scanned, 0u);
  // The exclusive stall is a strict subset of the build.
  EXPECT_LT(report.exclusive_seconds, report.total_seconds);

  EXPECT_EQ((*built)->physical->ContentDigest(),
            OfflineDigest(SymbolPattern()))
      << "online build diverged from offline rebuild ("
      << report.delta_ops_applied << " delta ops, " << report.docs_scanned
      << " docs scanned)";
}

}  // namespace
}  // namespace xia::storage
