// Tests for xia::Database, the request path that net::Server, xia_shell
// and xia_crash_harness share: Run against a hand-wired optimizer and
// executor, the lock mode each call takes, the epoch fence, the digest
// the replication and crash checks compare, and concurrent advise calls
// next to writes.
//
// Lock modes are observed without timing: a shared holder that a call
// must coexist with (the call would deadlock otherwise), and a probe
// fired by the WAL writer's test hook while the call commits, which
// checks from another thread that the lock cannot be taken shared.

#include <gtest/gtest.h>

#include <atomic>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "engine/executor.h"
#include "engine/query_parser.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/optimizer.h"
#include "scratch_dir.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"
#include "xpath/parser.h"

namespace xia {
namespace {

using testutil::ScratchDir;

const tpox::TpoxScale kScale{200, 300, 80, 42};

constexpr const char* kPointQuery =
    "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000017\" return $s";
constexpr const char* kUpdate =
    "update SDOC set /Security/Yield = 12.5 "
    "where /Security[Symbol = \"SYM000017\"]";

Status LoadTpox(Database* db) {
  return db->BulkLoad([](storage::DocumentStore* store,
                         storage::StatisticsCatalog* statistics) {
    return tpox::BuildTpoxDatabase(kScale, store, statistics);
  });
}

engine::Statement Parse(const std::string& text) {
  Result<engine::Statement> stmt = engine::ParseStatement(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return stmt.ok() ? *stmt : engine::Statement();
}

xpath::IndexPattern Pattern(const std::string& text, xpath::ValueType type) {
  Result<xpath::Path> path = xpath::ParsePattern(text);
  EXPECT_TRUE(path.ok()) << path.status();
  return xpath::IndexPattern{path.ok() ? *path : xpath::Path(), type};
}

std::string MustDigest(Database* db) {
  Result<std::string> digest = db->Digest();
  EXPECT_TRUE(digest.ok()) << digest.status();
  return digest.ok() ? *digest : std::string();
}

// Everything a recommendation reports except its timings, doubles in
// exact hex, one line per index.
std::string Signature(const advisor::Recommendation& rec) {
  std::string out;
  for (const advisor::RecommendedIndex& index : rec.indexes) {
    out += StringPrintf("%s %llu%s\n", index.ddl.c_str(),
                        static_cast<unsigned long long>(index.size_bytes),
                        index.is_general ? " general" : "");
  }
  out += StringPrintf(
      "size %a base %a benefit %a speedup %a candidates %zu/%zu "
      "general %d specific %d calls %llu partial %d",
      rec.total_size_bytes, rec.base_cost, rec.benefit, rec.est_speedup,
      rec.basic_candidates, rec.total_candidates, rec.general_count,
      rec.specific_count, static_cast<unsigned long long>(rec.optimizer_calls),
      rec.partial ? 1 : 0);
  return out;
}

// A durable database whose WAL writer calls `probe` before every fsync,
// i.e. while a committing call still holds the database lock.
class ProbedDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.data_dir = ScratchDir("probed");
    options.fsync_policy = "always";
    options.test_hook = [this](const char* point) {
      if (armed_ && std::string(point) == "wal.append.before_fsync") Probe();
    };
    db_ = std::make_unique<Database>(std::move(options));
    ASSERT_TRUE(db_->Open().ok());
    ASSERT_TRUE(LoadTpox(db_.get()).ok());
  }

  // Runs on the committing thread: another thread tries the lock.
  void Probe() {
    ++probes_;
    std::thread reader([this] {
      if (db_->mutex().try_lock_shared()) {
        ++shared_acquired_;
        db_->mutex().unlock_shared();
      }
    });
    reader.join();
  }

  std::unique_ptr<Database> db_;
  std::atomic<bool> armed_{false};
  std::atomic<int> probes_{0};
  std::atomic<int> shared_acquired_{0};
};

TEST(DatabaseTest, RunMatchesDirectOptimizeAndExecute) {
  Database db;
  ASSERT_TRUE(LoadTpox(&db).ok());
  storage::DocumentStore store;
  storage::StatisticsCatalog statistics;
  ASSERT_TRUE(tpox::BuildTpoxDatabase(kScale, &store, &statistics).ok());
  storage::Catalog catalog(&store, &statistics);
  engine::Executor executor(&store, &catalog);
  const optimizer::Optimizer optimizer(&store, &catalog, &statistics);

  // Indexes on both sides, so some plans probe them.
  const xpath::IndexPattern symbol =
      Pattern("/Security/Symbol", xpath::ValueType::kString);
  const xpath::IndexPattern price =
      Pattern("/FIXML/Order/OrdQty/@Qty", xpath::ValueType::kNumeric);
  ASSERT_TRUE(db.CreateIndex({"sym", "SDOC", symbol}).ok());
  ASSERT_TRUE(catalog.CreateIndex("sym", "SDOC", symbol).ok());
  ASSERT_TRUE(db.CreateIndex({"px", "ODOC", price}).ok());
  ASSERT_TRUE(catalog.CreateIndex("px", "ODOC", price).ok());

  Result<engine::Workload> queries = tpox::TpoxQueries();
  ASSERT_TRUE(queries.ok()) << queries.status();
  Random rng(7);
  Result<engine::Workload> mix = tpox::TpoxTransactionMix(
      4, kScale.security_docs, kScale.order_docs, kScale.custacc_docs, &rng);
  ASSERT_TRUE(mix.ok()) << mix.status();
  engine::Workload statements = *queries;
  statements.insert(statements.end(), mix->begin(), mix->end());
  statements.insert(statements.end(), queries->begin(), queries->end());

  RunOptions run;
  run.materialize_rows = true;
  run.max_rows = 1000;
  size_t index_plans = 0;
  for (const engine::Statement& stmt : statements) {
    SCOPED_TRACE(stmt.label);
    Result<RunResult> got = db.Run(stmt, run);
    ASSERT_TRUE(got.ok()) << got.status();
    Result<optimizer::Plan> plan = optimizer.Optimize(stmt);
    ASSERT_TRUE(plan.ok()) << plan.status();
    Result<engine::ExecResult> want = executor.Execute(stmt, *plan, run);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got->plan.Describe(), plan->Describe());
    EXPECT_EQ(got->exec.result_count, want->result_count);
    EXPECT_EQ(got->exec.docs_examined, want->docs_examined);
    EXPECT_EQ(got->exec.index_entries_scanned, want->index_entries_scanned);
    EXPECT_EQ(got->exec.index_leaf_pages, want->index_leaf_pages);
    EXPECT_EQ(got->exec.rows, want->rows);
    EXPECT_EQ(got->lsn, 0u);  // volatile
    index_plans += want->index_entries_scanned > 0;
  }
  EXPECT_GT(index_plans, 0u);
}

TEST(DatabaseTest, QueryRunsWhileAnotherSharedHolderHoldsTheLock) {
  Database db;
  ASSERT_TRUE(LoadTpox(&db).ok());
  const engine::Statement query = Parse(kPointQuery);
  std::shared_lock<std::shared_mutex> held(db.mutex());
  Result<RunResult> ran = Status::Internal("not run");
  Result<std::string> explained = Status::Internal("not run");
  // Both calls need the lock shared; were either exclusive, the join
  // below would never return.
  std::thread other([&] {
    ran = db.Run(query);
    explained = db.Explain(query, /*analyze=*/true);
  });
  other.join();
  ASSERT_TRUE(ran.ok()) << ran.status();
  EXPECT_EQ(ran->exec.result_count, 1u);
  EXPECT_TRUE(explained.ok()) << explained.status();
}

TEST_F(ProbedDatabaseTest, MutationsAndExplainAnalyzeOfAMutationAreExclusive) {
  const engine::Statement update = Parse(kUpdate);
  armed_ = true;
  Result<RunResult> ran = db_->Run(update);
  ASSERT_TRUE(ran.ok()) << ran.status();
  EXPECT_GT(ran->lsn, 0u);
  const int after_run = probes_.load();
  Result<std::string> analyzed = db_->Explain(update, /*analyze=*/true);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  armed_ = false;
  EXPECT_GT(after_run, 0);
  EXPECT_GT(probes_.load(), after_run);  // the ANALYZE committed too
  EXPECT_EQ(shared_acquired_.load(), 0);

  // The probe itself does take a free lock.
  Probe();
  EXPECT_EQ(shared_acquired_.load(), 1);
}

TEST_F(ProbedDatabaseTest, ExpectedEpochMismatchIsFenced) {
  const std::string before = MustDigest(db_.get());
  RunOptions stale;
  stale.expected_epoch = 2;  // the database is in epoch 1
  Result<RunResult> fenced = db_->Run(Parse(kUpdate), stale);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), StatusCode::kFenced);
  EXPECT_EQ(MustDigest(db_.get()), before);

  RunOptions current;
  current.expected_epoch = 1;
  EXPECT_TRUE(db_->Run(Parse(kUpdate), current).ok());
  EXPECT_NE(MustDigest(db_.get()), before);

  // A query carries no fence.
  EXPECT_TRUE(db_->Run(Parse(kPointQuery), stale).ok());
}

TEST(DatabaseTest, DigestMatchesServerStoreDigest) {
  net::ServerOptions options;
  options.demo = "tpox";
  options.demo_tpox_scale = kScale;
  net::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Database db;
  ASSERT_TRUE(LoadTpox(&db).ok());
  Result<std::string> seeded = server.StoreDigest();
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_EQ(*seeded, MustDigest(&db));

  // The same mutation and DDL, once over the wire and once directly.
  net::Client client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  net::MutationRequest mutation;
  mutation.statement = kUpdate;
  ASSERT_TRUE(client.Mutate(mutation).ok());
  net::CreateIndexRequest index;
  index.name = "sym";
  index.collection = "SDOC";
  index.pattern = "/Security/Symbol";
  ASSERT_TRUE(client.CreateIndex(index).ok());
  ASSERT_TRUE(db.Run(Parse(kUpdate)).ok());
  ASSERT_TRUE(db.CreateIndex({"sym", "SDOC",
                              Pattern("/Security/Symbol",
                                      xpath::ValueType::kString)})
                  .ok());
  Result<std::string> changed = server.StoreDigest();
  ASSERT_TRUE(changed.ok()) << changed.status();
  EXPECT_NE(*changed, *seeded);
  EXPECT_EQ(*changed, MustDigest(&db));
  EXPECT_TRUE(server.Stop().ok());
}

// The advisor's one form of concurrency: several callers (sessions, the
// online advisor) advising one database at once, next to writers. Each
// Recommend keeps its mutable state to itself and a mutation takes the
// lock exclusively, so every concurrent result must equal a serial run on
// the same state. The writer repeats one update whose value is already in
// place, so the state the advisor reads stays the same throughout.
TEST(DatabaseTest, ConcurrentAdvisesNextToWritesMatchSerialRuns) {
  Database db;
  ASSERT_TRUE(LoadTpox(&db).ok());
  const engine::Statement update = Parse(kUpdate);
  ASSERT_TRUE(db.Run(update).ok());
  Result<engine::Workload> workload = tpox::TpoxQueries();
  ASSERT_TRUE(workload.ok()) << workload.status();

  std::vector<advisor::AdvisorOptions> options(2);
  options[0].algorithm = advisor::SearchAlgorithm::kTopDownFull;
  options[0].disk_budget_bytes = 256 * 1024;
  options[1].algorithm = advisor::SearchAlgorithm::kGreedyWithHeuristics;
  options[1].disk_budget_bytes = 64 * 1024;
  std::vector<std::string> serial;
  for (const advisor::AdvisorOptions& o : options) {
    Result<advisor::Recommendation> rec = db.Advise(*workload, o);
    ASSERT_TRUE(rec.ok()) << rec.status();
    ASSERT_FALSE(rec->indexes.empty());
    serial.push_back(Signature(*rec));
  }

  constexpr int kRounds = 3;
  std::atomic<int> writes{0};
  std::atomic<bool> write_failed{false};
  std::atomic<int> advisers_done{0};
  std::thread writer([&] {
    while (advisers_done.load() < 2) {
      if (!db.Run(update).ok()) {
        write_failed = true;
        return;
      }
      ++writes;
      std::this_thread::yield();
    }
  });
  std::vector<std::vector<std::string>> got(2);
  std::vector<std::thread> advisers;
  for (size_t t = 0; t < 2; ++t) {
    advisers.emplace_back([&, t] {
      while (writes.load() == 0 && !write_failed.load()) {
        std::this_thread::yield();
      }
      for (int round = 0; round < kRounds; ++round) {
        Result<advisor::Recommendation> rec = db.Advise(*workload, options[t]);
        got[t].push_back(rec.ok() ? Signature(*rec) : rec.status().ToString());
      }
      ++advisers_done;
    });
  }
  for (std::thread& adviser : advisers) adviser.join();
  writer.join();

  EXPECT_FALSE(write_failed.load());
  EXPECT_GT(writes.load(), 0);
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<size_t>(kRounds));
    for (const std::string& signature : got[t]) {
      EXPECT_EQ(signature, serial[t]) << "adviser " << t;
    }
  }
}

}  // namespace
}  // namespace xia
