// End-to-end test for the online advising loop (ISSUE 2 acceptance):
// queries executed through the engine flow into the capture sink, the
// background OnlineAdvisor folds them into templates and recommends, and
// the online recommendation equals a batch advise over the same captured
// workload.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "storage/document_store.h"
#include "storage/statistics.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "workload/capture.h"
#include "workload/online_advisor.h"

namespace xia::workload {
namespace {

std::vector<std::string> Ddls(const advisor::Recommendation& rec) {
  std::vector<std::string> out;
  for (const auto& ri : rec.indexes) out.push_back(ri.ddl);
  return out;
}

class OnlineAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 300;
    scale.order_docs = 400;
    scale.custacc_docs = 100;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    catalog_ = std::make_unique<storage::Catalog>(&store_, &stats_);
    optimizer_ = std::make_unique<optimizer::Optimizer>(&store_,
                                                        catalog_.get(),
                                                        &stats_);
    executor_ = std::make_unique<engine::Executor>(&store_, catalog_.get());
    advisor_ = std::make_unique<advisor::IndexAdvisor>(&store_, &stats_);
    executor_->set_sink(&capture_);
  }

  OnlineAdvisorOptions Options() {
    OnlineAdvisorOptions options;
    options.min_new_queries = 32;
    options.advise_interval_seconds = 0.05;
    options.poll_interval_seconds = 0.005;
    options.advisor.disk_budget_bytes = 2.0 * 1024 * 1024;
    return options;
  }

  // Executes every TPoX query `rounds` times through the real engine
  // path, which publishes into capture_ via the executor sink.
  void RunTraffic(int rounds) {
    auto queries = tpox::TpoxQueries();
    ASSERT_TRUE(queries.ok()) << queries.status();
    for (int r = 0; r < rounds; ++r) {
      for (const auto& stmt : *queries) {
        std::unique_lock<std::shared_mutex> db(db_mu_);
        auto result = executor_->ExecuteBest(stmt, *optimizer_);
        ASSERT_TRUE(result.ok()) << result.status();
      }
    }
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  std::unique_ptr<engine::Executor> executor_;
  std::unique_ptr<advisor::IndexAdvisor> advisor_;
  WorkloadCapture capture_;
  std::shared_mutex db_mu_;
};

TEST_F(OnlineAdvisorTest, OnlineMatchesBatchOverCapturedWorkload) {
  OnlineAdvisor online(&capture_, advisor_.get(), Options(), &db_mu_);
  ASSERT_TRUE(online.Start().ok());
  EXPECT_TRUE(online.running());

  RunTraffic(/*rounds=*/10);  // 110 queries >= the 100 the issue asks for.

  // Force a final synchronous pass so nothing is left pending, then stop.
  ASSERT_TRUE(online.AdviseNow().ok());
  online.Stop();
  EXPECT_FALSE(online.running());

  OnlineAdvisorStatus status = online.Snapshot();
  EXPECT_EQ(status.queries_seen, 110u);
  EXPECT_EQ(status.template_count, 11u);
  EXPECT_GE(status.advise_runs, 1u);
  EXPECT_EQ(status.advise_failures, 0u);
  ASSERT_TRUE(status.has_recommendation);
  EXPECT_FALSE(status.recommendation.indexes.empty());

  // The acceptance bar: the online recommendation equals a batch advise
  // over the same captured (templatized, weighted) workload.
  const engine::Workload captured = online.CurrentWorkload();
  ASSERT_EQ(captured.size(), 11u);
  auto batch = advisor_->Recommend(captured, Options().advisor);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(Ddls(status.recommendation), Ddls(*batch));
  EXPECT_DOUBLE_EQ(status.recommendation.total_size_bytes,
                   batch->total_size_bytes);
}

TEST_F(OnlineAdvisorTest, BackgroundThreadAdvisesOnItsOwn) {
  OnlineAdvisor online(&capture_, advisor_.get(), Options(), &db_mu_);
  ASSERT_TRUE(online.Start().ok());

  RunTraffic(/*rounds=*/6);  // 66 queries > min_new_queries = 32.

  // No AdviseNow(): the background thread must pick the work up itself.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (online.Snapshot().advise_runs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  online.Stop();

  OnlineAdvisorStatus status = online.Snapshot();
  EXPECT_GE(status.advise_runs, 1u);
  EXPECT_EQ(status.advise_failures, 0u);
  EXPECT_TRUE(status.has_recommendation);
  EXPECT_GT(status.queries_seen, 0u);
  EXPECT_GT(status.recommendation.indexes.size(), 0u);
}

TEST_F(OnlineAdvisorTest, StopIsIdempotentAndRestartable) {
  OnlineAdvisor online(&capture_, advisor_.get(), Options(), &db_mu_);
  EXPECT_FALSE(online.running());
  online.Stop();  // Stop before Start is a no-op.
  ASSERT_TRUE(online.Start().ok());
  EXPECT_FALSE(online.Start().ok());  // Double-start is refused.
  online.Stop();
  online.Stop();
  EXPECT_FALSE(online.running());
  // Capture is disabled after Stop: publications are ignored.
  auto queries = tpox::TpoxQueries();
  ASSERT_TRUE(queries.ok());
  EXPECT_FALSE(capture_.Publish((*queries)[0]));

  // Restart picks the loop back up.
  ASSERT_TRUE(online.Start().ok());
  EXPECT_TRUE(online.running());
  RunTraffic(/*rounds=*/1);
  ASSERT_TRUE(online.AdviseNow().ok());
  online.Stop();
  EXPECT_EQ(online.Snapshot().queries_seen, 11u);
}

TEST_F(OnlineAdvisorTest, ChurnSettlesOnStableTraffic) {
  // No background thread here: passes are driven synchronously via
  // AdviseNow() so the churn of each pass is deterministic.
  OnlineAdvisor online(&capture_, advisor_.get(), Options(), &db_mu_);
  capture_.set_enabled(true);

  RunTraffic(/*rounds=*/5);
  ASSERT_TRUE(online.AdviseNow().ok());
  OnlineAdvisorStatus first = online.Snapshot();
  ASSERT_TRUE(first.has_recommendation);
  EXPECT_EQ(first.last_entered, first.recommendation.indexes.size());
  EXPECT_EQ(first.last_left, 0u);

  // Same traffic again: weights double uniformly, the configuration must
  // not move, so churn is zero.
  RunTraffic(/*rounds=*/5);
  ASSERT_TRUE(online.AdviseNow().ok());
  OnlineAdvisorStatus second = online.Snapshot();
  EXPECT_EQ(Ddls(second.recommendation), Ddls(first.recommendation));
  EXPECT_EQ(second.last_entered, 0u);
  EXPECT_EQ(second.last_left, 0u);
}

}  // namespace
}  // namespace xia::workload
