// xia::fault unit tests: spec parsing, deterministic firing, registry
// configuration, deadlines/cancellation, CRC32 vectors, StatusExitCode,
// and deadline behaviour in the executor and advisor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "engine/executor.h"
#include "engine/query_parser.h"
#include "fault/deadline.h"
#include "fault/fault.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "tpox/tpox_data.h"
#include "util/crc32.h"
#include "util/status.h"

namespace xia::fault {
namespace {

TEST(FaultSpecTest, ParsesProbabilityAndNthHit) {
  auto p = FaultSpec::Parse("p0.25");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->mode, FaultSpec::Mode::kProbability);
  EXPECT_DOUBLE_EQ(p->probability, 0.25);

  auto n = FaultSpec::Parse("n3");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->mode, FaultSpec::Mode::kNthHit);
  EXPECT_EQ(n->nth, 3u);

  // Boundaries.
  EXPECT_TRUE(FaultSpec::Parse("p0").ok());
  EXPECT_TRUE(FaultSpec::Parse("p1").ok());
  EXPECT_TRUE(FaultSpec::Parse("n1").ok());
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "p", "n", "p1.5", "p-0.1", "n0", "n-2",
                          "n1.5", "x3", "3", "p0.5extra"}) {
    EXPECT_FALSE(FaultSpec::Parse(bad).ok()) << bad;
  }
}

TEST(FaultSpecTest, ToStringRoundTrips) {
  EXPECT_EQ(FaultSpec().ToString(), "off");
  EXPECT_EQ(FaultSpec::Probability(0.5).ToString(), "p0.5");
  EXPECT_EQ(FaultSpec::NthHit(7).ToString(), "n7");
}

TEST(FaultPointTest, DisarmedNeverFires) {
  ScopedFaultDisarm cleanup;
  FaultPoint* point = FaultRegistry::Global().GetPoint("test.disarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(point->ShouldFire());
  // Disarmed hits are not counted (the fast path is one atomic load).
  EXPECT_EQ(point->Snapshot().hits, 0u);
}

TEST(FaultPointTest, NthHitFiresExactlyOnce) {
  ScopedFaultDisarm cleanup;
  FaultRegistry::Global().Arm("test.nth", FaultSpec::NthHit(3));
  FaultPoint* point = FaultRegistry::Global().GetPoint("test.nth");
  std::vector<bool> fires;
  for (int i = 0; i < 10; ++i) fires.push_back(point->ShouldFire());
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, false, false,
                                      false, false, false, false, false}));
  const FaultPointStatus st = point->Snapshot();
  EXPECT_EQ(st.hits, 10u);
  EXPECT_EQ(st.fired, 1u);
}

TEST(FaultPointTest, ProbabilityExtremes) {
  ScopedFaultDisarm cleanup;
  FaultRegistry::Global().Arm("test.p0", FaultSpec::Probability(0));
  FaultRegistry::Global().Arm("test.p1", FaultSpec::Probability(1));
  FaultPoint* never = FaultRegistry::Global().GetPoint("test.p0");
  FaultPoint* always = FaultRegistry::Global().GetPoint("test.p1");
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(never->ShouldFire());
    EXPECT_TRUE(always->ShouldFire());
  }
}

TEST(FaultPointTest, EqualSeedsReplayEqualSchedules) {
  ScopedFaultDisarm cleanup;
  FaultRegistry& registry = FaultRegistry::Global();
  registry.set_seed(12345);
  registry.Arm("test.replay", FaultSpec::Probability(0.5));
  FaultPoint* point = registry.GetPoint("test.replay");
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(point->ShouldFire());
  // Re-arming with the same registry seed replays the same schedule.
  registry.Arm("test.replay", FaultSpec::Probability(0.5));
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) second.push_back(point->ShouldFire());
  EXPECT_EQ(first, second);

  registry.set_seed(54321);
  registry.Arm("test.replay", FaultSpec::Probability(0.5));
  std::vector<bool> other;
  for (int i = 0; i < 64; ++i) other.push_back(point->ShouldFire());
  EXPECT_NE(first, other);
  registry.set_seed(42);  // restore the default for later tests
}

TEST(FaultPointTest, InjectedStatusNamesThePoint) {
  FaultPoint* point = FaultRegistry::Global().GetPoint("test.status");
  const Status status = point->InjectedStatus();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("fault injected"), std::string::npos);
  EXPECT_NE(status.message().find("test.status"), std::string::npos);
}

TEST(FaultRegistryTest, ConfigureFromSpecArmsEveryEntry) {
  ScopedFaultDisarm cleanup;
  ASSERT_TRUE(FaultRegistry::Global()
                  .ConfigureFromSpec("test.cfg.a=p0.5; test.cfg.b=n2")
                  .ok());
  EXPECT_EQ(FaultRegistry::Global().GetPoint("test.cfg.a")->Snapshot()
                .spec.ToString(),
            "p0.5");
  EXPECT_EQ(FaultRegistry::Global().GetPoint("test.cfg.b")->Snapshot()
                .spec.ToString(),
            "n2");
}

TEST(FaultRegistryTest, MalformedSpecAppliesNothing) {
  ScopedFaultDisarm cleanup;
  const Status status = FaultRegistry::Global().ConfigureFromSpec(
      "test.cfg.good=p1,test.cfg.bad=zzz");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // All-or-nothing: the well-formed entry must not have been armed.
  EXPECT_EQ(FaultRegistry::Global().GetPoint("test.cfg.good")->Snapshot()
                .spec.ToString(),
            "off");
}

TEST(FaultRegistryTest, ConfigureFromEnvReadsSpecAndSeed) {
  ScopedFaultDisarm cleanup;
  ::setenv("XIA_FAULTS", "test.env.point=n1", 1);
  ::setenv("XIA_FAULTS_SEED", "99", 1);
  EXPECT_TRUE(FaultRegistry::Global().ConfigureFromEnv().ok());
  EXPECT_EQ(FaultRegistry::Global().seed(), 99u);
  EXPECT_TRUE(FaultRegistry::Global().GetPoint("test.env.point")
                  ->ShouldFire());

  ::setenv("XIA_FAULTS", "broken", 1);
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromEnv().ok());
  ::unsetenv("XIA_FAULTS");
  ::unsetenv("XIA_FAULTS_SEED");
  FaultRegistry::Global().set_seed(42);
}

TEST(FaultRegistryTest, ScopedDisarmClearsEverything) {
  {
    ScopedFaultDisarm cleanup;
    FaultRegistry::Global().Arm("test.scoped", FaultSpec::Probability(1));
    EXPECT_TRUE(FaultRegistry::Global().GetPoint("test.scoped")
                    ->ShouldFire());
  }
  EXPECT_FALSE(
      FaultRegistry::Global().GetPoint("test.scoped")->ShouldFire());
}

Status FunctionWithInjectionSite() {
  XIA_FAULT_INJECT("test.macro.site");
  return Status::OK();
}

TEST(FaultMacroTest, InjectsIntoStatusReturningFunction) {
  ScopedFaultDisarm cleanup;
  EXPECT_TRUE(FunctionWithInjectionSite().ok());
  FaultRegistry::Global().Arm("test.macro.site", FaultSpec::Probability(1));
  const Status status = FunctionWithInjectionSite();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("test.macro.site"), std::string::npos);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining_seconds(), 1e18);
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).expired());
  EXPECT_TRUE(Deadline::AfterSeconds(0).expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  const Deadline deadline = Deadline::AfterSeconds(60);
  EXPECT_FALSE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining_seconds(), 50.0);
  EXPECT_LT(deadline.remaining_seconds(), 61.0);
}

TEST(CancelTokenTest, CancelAndReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CheckInterruptTest, CancellationBeatsDeadline) {
  CancelToken token;
  EXPECT_TRUE(CheckInterrupt(Deadline(), &token).ok());
  EXPECT_TRUE(CheckInterrupt(Deadline(), nullptr).ok());

  EXPECT_EQ(CheckInterrupt(Deadline::AfterMillis(0)).code(),
            StatusCode::kDeadlineExceeded);

  token.Cancel();
  // Both tripped: cancellation wins (the more deliberate signal).
  EXPECT_EQ(CheckInterrupt(Deadline::AfterMillis(0), &token).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(CheckInterrupt(Deadline(), &token).code(),
            StatusCode::kCancelled);
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    const size_t n = std::min<size_t>(7, data.size() - i);
    crc = Crc32Update(crc, data.data() + i, n);
  }
  EXPECT_EQ(crc, Crc32(data));
}

TEST(Crc32Test, DetectsSingleByteCorruption) {
  std::string data = "some payload worth protecting";
  const uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_NE(Crc32(corrupt), clean) << "offset " << i;
  }
}

TEST(StatusExitCodeTest, DistinctNonZeroCodePerFailureClass) {
  EXPECT_EQ(StatusExitCode(Status::OK()), 0);
  const std::vector<Status> failures = {
      Status::InvalidArgument("x"), Status::NotFound("x"),
      Status::FailedPrecondition("x"), Status::Internal("x"),
      Status::ParseError("x"), Status::DeadlineExceeded("x"),
      Status::Cancelled("x"), Status::DataLoss("x"),
      Status::Unavailable("x")};
  std::vector<int> codes;
  for (const Status& s : failures) {
    const int code = StatusExitCode(s);
    // Never collides with 0 (ok), 1 (generic) or 2 (usage).
    EXPECT_GE(code, 10) << s;
    codes.push_back(code);
  }
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::unique(codes.begin(), codes.end()), codes.end());
  // The contract the CLI error-path test relies on.
  EXPECT_EQ(StatusExitCode(Status::NotFound("x")), 12);
  EXPECT_EQ(StatusExitCode(Status::InvalidArgument("x")), 11);
}

class DeadlinePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 40;
    scale.order_docs = 40;
    scale.custacc_docs = 20;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
  }

  engine::Workload MakeWorkload() {
    engine::Workload w;
    for (const char* text :
         {"for $sec in SECURITY('SDOC')/Security "
          "where $sec/Symbol = \"SYM000011\" return $sec",
          "for $sec in SECURITY('SDOC')/Security[Yield > 4.5] "
          "where $sec/SecInfo/*/Sector = \"Energy\" "
          "return <Security>{$sec/Name}</Security>"}) {
      auto stmt = engine::ParseStatement(text);
      EXPECT_TRUE(stmt.ok()) << stmt.status();
      w.push_back(std::move(*stmt));
    }
    return w;
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
};

TEST_F(DeadlinePipelineTest, ExpiredDeadlineStopsExecutorScan) {
  storage::Catalog catalog(&store_, &stats_);
  optimizer::Optimizer optimizer(&store_, &catalog, &stats_);
  engine::Executor executor(&store_, &catalog);
  auto stmt = engine::ParseStatement(
      "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000017\" "
      "return $s");
  ASSERT_TRUE(stmt.ok());
  auto plan = optimizer.Optimize(*stmt);
  ASSERT_TRUE(plan.ok());

  engine::ExecOptions options;
  options.deadline = fault::Deadline::AfterMillis(0);
  auto result = executor.Execute(*stmt, *plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // Cancellation takes the same exit.
  engine::ExecOptions cancelled;
  CancelToken token;
  token.Cancel();
  cancelled.cancel = &token;
  auto cancelled_result = executor.Execute(*stmt, *plan, cancelled);
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_EQ(cancelled_result.status().code(), StatusCode::kCancelled);
}

TEST_F(DeadlinePipelineTest, OptimizerHonoursDeadline) {
  storage::Catalog catalog(&store_, &stats_);
  optimizer::Optimizer::Options options;
  options.deadline = fault::Deadline::AfterMillis(0);
  optimizer::Optimizer optimizer(&store_, &catalog, &stats_, options);
  auto stmt = engine::ParseStatement(
      "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000017\" "
      "return $s");
  ASSERT_TRUE(stmt.ok());
  auto plan = optimizer.Optimize(*stmt);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DeadlinePipelineTest, TinyBudgetYieldsPartialRecommendation) {
  advisor::IndexAdvisor advisor(&store_, &stats_);
  advisor::AdvisorOptions options;
  options.budget_ms = 0.001;  // expires before the first candidate
  auto rec = advisor.Recommend(MakeWorkload(), options);
  // Degrades to best-so-far, never kDeadlineExceeded.
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(rec->partial);
}

TEST_F(DeadlinePipelineTest, UnboundedRunIsNotPartial) {
  advisor::IndexAdvisor advisor(&store_, &stats_);
  advisor::AdvisorOptions options;
  auto rec = advisor.Recommend(MakeWorkload(), options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_FALSE(rec->partial);
  EXPECT_FALSE(rec->indexes.empty());
}

TEST_F(DeadlinePipelineTest, CancelledRunYieldsPartialRecommendation) {
  advisor::IndexAdvisor advisor(&store_, &stats_);
  advisor::AdvisorOptions options;
  CancelToken token;
  token.Cancel();
  options.cancel = &token;
  auto rec = advisor.Recommend(MakeWorkload(), options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(rec->partial);
}

TEST_F(DeadlinePipelineTest, GranularPollingInsideBenefitEvaluation) {
  // The deadline-aware ConfigurationBenefit polls per statement *inside*
  // a sub-configuration evaluation, and an interrupted evaluation must
  // not poison the cache: a later deadline-free call recomputes cleanly.
  advisor::IndexAdvisor advisor(&store_, &stats_);
  auto set = advisor.BuildCandidates(MakeWorkload(), /*generalize=*/false);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_GE(set->basic_count, 1u);

  const engine::Workload workload = MakeWorkload();
  storage::Catalog whatif(&store_, &stats_);
  advisor::BenefitEvaluator evaluator(&workload, &*set, &whatif, &stats_,
                                      &store_,
                                      advisor::BenefitEvaluator::Options{});
  ASSERT_TRUE(evaluator.Initialize().ok());

  const std::vector<int> config = {0};
  auto interrupted = evaluator.ConfigurationBenefit(
      config, Deadline::AfterMillis(0), nullptr);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kDeadlineExceeded);

  CancelToken token;
  token.Cancel();
  auto cancelled = evaluator.ConfigurationBenefit(config, Deadline(), &token);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // Nothing was cached for the interrupted evaluations.
  auto clean = evaluator.ConfigurationBenefit(config);
  ASSERT_TRUE(clean.ok()) << clean.status();
  auto again = evaluator.ConfigurationBenefit(config);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*clean, *again);
}

TEST_F(DeadlinePipelineTest, PartialRecommendationIsStillValid) {
  // Every budget, however tight, must yield a structurally valid
  // recommendation: sizes within the disk budget, speedup >= 1.
  advisor::IndexAdvisor advisor(&store_, &stats_);
  for (double budget_ms : {0.001, 0.1, 1.0, 5.0}) {
    advisor::AdvisorOptions options;
    options.budget_ms = budget_ms;
    auto rec = advisor.Recommend(MakeWorkload(), options);
    ASSERT_TRUE(rec.ok()) << "budget " << budget_ms << ": " << rec.status();
    EXPECT_LE(rec->total_size_bytes, options.disk_budget_bytes)
        << "budget " << budget_ms;
    EXPECT_GE(rec->est_speedup, 1.0) << "budget " << budget_ms;
  }
}

}  // namespace
}  // namespace xia::fault
