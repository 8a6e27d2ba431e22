// End-to-end advisor tests on the TPoX database: the full §III-§VII
// pipeline, including the paper's running example, maintenance-cost
// behaviour, and the estimated-vs-actual speedup linkage.

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/report.h"
#include "engine/executor.h"
#include "engine/query_parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "xpath/parser.h"

namespace xia::advisor {
namespace {

engine::Statement Parse(const std::string& text, double freq = 1.0) {
  auto stmt = engine::ParseStatement(text, freq);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status();
  return std::move(*stmt);
}

class AdvisorE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpox::TpoxScale scale;
    scale.security_docs = 500;
    scale.order_docs = 600;
    scale.custacc_docs = 150;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    advisor_ = std::make_unique<IndexAdvisor>(&store_, &stats_);
  }

  engine::Workload PaperWorkload() {
    engine::Workload w;
    w.push_back(Parse(
        "for $sec in SECURITY('SDOC')/Security "
        "where $sec/Symbol = \"SYM000101\" return $sec"));
    w.push_back(Parse(
        "for $sec in SECURITY('SDOC')/Security[Yield > 4.5] "
        "where $sec/SecInfo/*/Sector = \"Energy\" "
        "return <Security>{$sec/Name}</Security>"));
    return w;
  }

  storage::DocumentStore store_;
  storage::StatisticsCatalog stats_;
  std::unique_ptr<IndexAdvisor> advisor_;
};

TEST_F(AdvisorE2eTest, TableOneCandidates) {
  auto set = advisor_->BuildCandidates(PaperWorkload(), /*generalize=*/true);
  ASSERT_TRUE(set.ok()) << set.status();
  // C1, C2, C3 basic; C4 = /Security//* general (Table I).
  ASSERT_EQ(set->basic_count, 3u);
  ASSERT_EQ(set->size(), 4u);
  EXPECT_EQ((*set)[0].pattern.path.ToString(), "/Security/Symbol");
  EXPECT_EQ((*set)[1].pattern.path.ToString(), "/Security/Yield");
  EXPECT_EQ((*set)[1].pattern.type, xpath::ValueType::kNumeric);
  EXPECT_EQ((*set)[2].pattern.path.ToString(), "/Security/SecInfo/*/Sector");
  EXPECT_EQ((*set)[3].pattern.path.ToString(), "/Security//*");
  EXPECT_TRUE((*set)[3].is_general);
}

TEST_F(AdvisorE2eTest, AffectedSetsTrackProvenance) {
  auto set = advisor_->BuildCandidates(PaperWorkload(), /*generalize=*/true);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ((*set)[0].affected, (std::vector<size_t>{0}));  // Q1 -> C1
  EXPECT_EQ((*set)[1].affected, (std::vector<size_t>{1}));  // Q2 -> C3
  EXPECT_EQ((*set)[2].affected, (std::vector<size_t>{1}));  // Q2 -> C2
  EXPECT_EQ((*set)[3].affected, (std::vector<size_t>{0, 1}));  // C4 both
}

TEST_F(AdvisorE2eTest, RecommendationsFitBudgetAndHelp) {
  for (SearchAlgorithm algo :
       {SearchAlgorithm::kGreedy, SearchAlgorithm::kGreedyWithHeuristics,
        SearchAlgorithm::kTopDownLite, SearchAlgorithm::kTopDownFull,
        SearchAlgorithm::kDynamicProgramming}) {
    AdvisorOptions options;
    options.algorithm = algo;
    options.disk_budget_bytes = 256.0 * 1024;
    auto rec = advisor_->Recommend(PaperWorkload(), options);
    ASSERT_TRUE(rec.ok()) << SearchAlgorithmName(algo) << rec.status();
    EXPECT_LE(rec->total_size_bytes, options.disk_budget_bytes * 1.01);
    EXPECT_GE(rec->est_speedup, 1.0) << SearchAlgorithmName(algo);
    EXPECT_GT(rec->base_cost, 0);
    EXPECT_GT(rec->optimizer_calls, 0u);
    EXPECT_EQ(rec->basic_candidates, 3u);
    EXPECT_EQ(rec->total_candidates, 4u);
  }
}

TEST_F(AdvisorE2eTest, AllIndexIsUpperBoundReference) {
  auto all = advisor_->AllIndexConfiguration(PaperWorkload());
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->indexes.size(), 3u);  // every basic candidate
  EXPECT_GT(all->est_speedup, 1.0);

  AdvisorOptions options;
  options.disk_budget_bytes = all->total_size_bytes;
  options.algorithm = SearchAlgorithm::kGreedyWithHeuristics;
  auto rec = advisor_->Recommend(PaperWorkload(), options);
  ASSERT_TRUE(rec.ok());
  // With a budget the size of AllIndex, the recommendation approaches the
  // AllIndex speedup (Fig. 2's plateau).
  EXPECT_GE(rec->est_speedup, all->est_speedup * 0.8);
}

TEST_F(AdvisorE2eTest, BiggerBudgetNeverHurts) {
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kGreedyWithHeuristics;
  double last_speedup = 0;
  for (double budget : {32.0 * 1024, 128.0 * 1024, 512.0 * 1024}) {
    options.disk_budget_bytes = budget;
    auto rec = advisor_->Recommend(PaperWorkload(), options);
    ASSERT_TRUE(rec.ok());
    EXPECT_GE(rec->est_speedup, last_speedup - 1e-9) << budget;
    last_speedup = rec->est_speedup;
  }
}

TEST_F(AdvisorE2eTest, DisableGeneralizationDropsGeneralCandidates) {
  auto set = advisor_->BuildCandidates(PaperWorkload(), /*generalize=*/false);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), set->basic_count);
}

TEST_F(AdvisorE2eTest, UpdateHeavyWorkloadSuppressesWideIndexes) {
  // A workload dominated by order insertions should make a wide order
  // index unattractive; with maintenance accounting disabled it would be
  // picked.
  engine::Workload workload;
  workload.push_back(Parse(
      "for $o in c('ODOC')/FIXML/Order where $o/Instrmt/Sym = "
      "\"SYM000002\" return $o"));
  Random rng(5);
  auto updates = tpox::TpoxUpdates(/*inserts=*/40, /*deletes=*/0, 600, &rng);
  ASSERT_TRUE(updates.ok());
  for (auto& u : *updates) {
    u.frequency = 50;  // update-heavy
    workload.push_back(std::move(u));
  }

  AdvisorOptions with_maintenance;
  with_maintenance.algorithm = SearchAlgorithm::kGreedyWithHeuristics;
  with_maintenance.disk_budget_bytes = 10e6;
  auto rec_with = advisor_->Recommend(workload, with_maintenance);
  ASSERT_TRUE(rec_with.ok()) << rec_with.status();

  AdvisorOptions without_maintenance = with_maintenance;
  without_maintenance.charge_maintenance = false;
  auto rec_without = advisor_->Recommend(workload, without_maintenance);
  ASSERT_TRUE(rec_without.ok());

  // Maintenance charges can only shrink (or keep) the configuration and
  // reduce the net benefit.
  EXPECT_LE(rec_with->indexes.size(), rec_without->indexes.size());
  EXPECT_LE(rec_with->benefit, rec_without->benefit + 1e-9);
}

TEST_F(AdvisorE2eTest, FrequencyWeightsBenefit) {
  // The same query with a higher frequency yields a proportionally larger
  // configuration benefit (§III: freq_s multiplies the cost delta).
  engine::Workload once;
  once.push_back(Parse(
      "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000007\" "
      "return $s", 1.0));
  engine::Workload often;
  often.push_back(Parse(
      "for $s in c('SDOC')/Security where $s/Symbol = \"SYM000007\" "
      "return $s", 10.0));

  AdvisorOptions options;
  options.disk_budget_bytes = 10e6;
  options.algorithm = SearchAlgorithm::kGreedy;
  auto rec_once = advisor_->Recommend(once, options);
  auto rec_often = advisor_->Recommend(often, options);
  ASSERT_TRUE(rec_once.ok());
  ASSERT_TRUE(rec_often.ok());
  EXPECT_NEAR(rec_often->benefit, 10.0 * rec_once->benefit,
              0.05 * rec_often->benefit);
}

TEST_F(AdvisorE2eTest, MaterializedRecommendationChangesRealPlans) {
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kGreedyWithHeuristics;
  options.disk_budget_bytes = 1e6;
  const engine::Workload workload = PaperWorkload();
  auto rec = advisor_->Recommend(workload, options);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->indexes.empty());

  storage::Catalog catalog(&store_, &stats_);
  ASSERT_TRUE(advisor_->Materialize(*rec, &catalog).ok());
  EXPECT_EQ(catalog.size(), rec->indexes.size());

  optimizer::Optimizer opt(&store_, &catalog, &stats_);
  engine::Executor executor(&store_, &catalog);
  // Q1 should now run off an index and touch very few documents.
  auto plan = opt.Optimize(workload[0]);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->kind, optimizer::Plan::Kind::kCollectionScan);
  auto result = executor.Execute(workload[0], *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->result_count, 1u);
  EXPECT_LT(result->docs_examined, 50u);
}

TEST_F(AdvisorE2eTest, ActualSpeedupTracksEstimatedDirection) {
  // Execute the workload with and without the recommended configuration;
  // measured document work must drop when the advisor predicts a speedup.
  const engine::Workload workload = PaperWorkload();
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kTopDownFull;
  options.disk_budget_bytes = 1e6;
  auto rec = advisor_->Recommend(workload, options);
  ASSERT_TRUE(rec.ok());
  ASSERT_GT(rec->est_speedup, 1.0);

  storage::Catalog no_indexes(&store_, &stats_);
  optimizer::Optimizer opt_before(&store_, &no_indexes, &stats_);
  engine::Executor exec_before(&store_, &no_indexes);
  uint64_t docs_before = 0;
  for (const auto& stmt : workload) {
    auto r = exec_before.ExecuteBest(stmt, opt_before);
    ASSERT_TRUE(r.ok());
    docs_before += r->docs_examined;
  }

  storage::Catalog with_indexes(&store_, &stats_);
  ASSERT_TRUE(advisor_->Materialize(*rec, &with_indexes).ok());
  optimizer::Optimizer opt_after(&store_, &with_indexes, &stats_);
  engine::Executor exec_after(&store_, &with_indexes);
  uint64_t docs_after = 0;
  for (const auto& stmt : workload) {
    auto r = exec_after.ExecuteBest(stmt, opt_after);
    ASSERT_TRUE(r.ok());
    docs_after += r->docs_examined;
  }
  EXPECT_LT(docs_after, docs_before / 2);
}

TEST_F(AdvisorE2eTest, TpoxElevenQueryWorkload) {
  auto workload = tpox::TpoxQueries();
  ASSERT_TRUE(workload.ok()) << workload.status();
  ASSERT_EQ(workload->size(), 11u);
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kTopDownFull;
  options.disk_budget_bytes = 4e6;
  auto rec = advisor_->Recommend(*workload, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GE(rec->basic_candidates, 8u);
  EXPECT_GT(rec->total_candidates, rec->basic_candidates);
  EXPECT_GT(rec->est_speedup, 1.0);
  EXPECT_FALSE(rec->indexes.empty());
  // Recommendations span multiple collections.
  std::set<std::string> collections;
  for (const auto& ri : rec->indexes) collections.insert(ri.collection);
  EXPECT_GE(collections.size(), 2u);
}

TEST_F(AdvisorE2eTest, DdlRendering) {
  AdvisorOptions options;
  options.disk_budget_bytes = 1e6;
  auto rec = advisor_->Recommend(PaperWorkload(), options);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->indexes.empty());
  for (const auto& ri : rec->indexes) {
    EXPECT_NE(ri.ddl.find("GENERATE KEY USING XMLPATTERN"),
              std::string::npos);
    EXPECT_NE(ri.ddl.find(ri.pattern.path.ToString()), std::string::npos);
  }
}

TEST_F(AdvisorE2eTest, ReportRendersAllSections) {
  AdvisorOptions options;
  options.disk_budget_bytes = 1e6;
  const engine::Workload workload = PaperWorkload();
  auto rec = advisor_->Recommend(workload, options);
  ASSERT_TRUE(rec.ok());
  auto report = RenderReport(workload, *rec, &store_, &stats_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE(report->find("recommended DDL"), std::string::npos);
  EXPECT_NE(report->find("per-statement impact"), std::string::npos);
  EXPECT_NE(report->find("GENERATE KEY USING XMLPATTERN"),
            std::string::npos);
  // Both statements appear with a cost row.
  EXPECT_NE(report->find("cost before"), std::string::npos);

  ReportOptions minimal;
  minimal.per_statement = false;
  minimal.show_ddl = false;
  auto terse = RenderReport(workload, *rec, &store_, &stats_, minimal);
  ASSERT_TRUE(terse.ok());
  EXPECT_EQ(terse->find("per-statement impact"), std::string::npos);
  EXPECT_EQ(terse->find("recommended DDL"), std::string::npos);
  EXPECT_NE(terse->find("est. workload speedup"), std::string::npos);
}

TEST_F(AdvisorE2eTest, TraceCoversPipelineAndAccountsOptimizerCalls) {
  AdvisorOptions options;
  options.algorithm = SearchAlgorithm::kTopDownFull;
  options.disk_budget_bytes = 1e6;
  auto rec = advisor_->Recommend(PaperWorkload(), options);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // Every pipeline phase appears as a depth-0 span with a sane duration.
  ASSERT_FALSE(rec->trace.empty());
  for (const char* phase : {"compact", "enumerate", "generalize",
                            "statistics", "dag", "initialize", "search",
                            "finalize"}) {
    const obs::SpanRecord* span = rec->trace.Find(phase);
    ASSERT_NE(span, nullptr) << phase;
    EXPECT_EQ(span->depth, 0) << phase;
    EXPECT_GE(span->seconds, 0.0) << phase;
  }

  // Depth-0 spans tile the run: their durations sum to the advisor's wall
  // time up to the bookkeeping outside them (deadline setup before the
  // first span, trace finalization after the last), a few microseconds.
  // The slack is absolute, not a share of the sub-millisecond run: the
  // ordinary scheduling noise of a loaded host between two spans is a large
  // share of such a run, but far below the slack...
  constexpr double kUntracedSlackSeconds = 0.05;
  EXPECT_GT(rec->advisor_seconds, 0.0);
  EXPECT_LE(rec->trace.PhaseSeconds(), rec->advisor_seconds);
  EXPECT_LE(rec->advisor_seconds - rec->trace.PhaseSeconds(),
            kUntracedSlackSeconds);

  // ...and their optimizer-call deltas to the recommendation's total.
  // The deltas come from the run's own optimizers, which count with
  // instrumentation compiled out too.
  EXPECT_EQ(rec->trace.PhaseTrackedCalls(), rec->optimizer_calls);

  // The enumeration probes are part of the total (the old accounting
  // dropped them).
  const obs::SpanRecord* enumerate = rec->trace.Find("enumerate");
  EXPECT_GT(rec->optimizer_calls, 0u);
  EXPECT_GT(enumerate->tracked_calls, 0u);
}

TEST_F(AdvisorE2eTest, AdvisorFeedsProcessMetrics) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with XIA_OBS_OFF";
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* optimize_calls =
      registry.GetCounter("xia.optimizer.optimize_calls");
  obs::Counter* containment =
      registry.GetCounter("xia.xpath.containment.checks");
  const uint64_t calls_before = optimize_calls->value();
  const uint64_t containment_before = containment->value();

  AdvisorOptions options;
  options.disk_budget_bytes = 1e6;
  auto rec = advisor_->Recommend(PaperWorkload(), options);
  ASSERT_TRUE(rec.ok());

  EXPECT_EQ(optimize_calls->value() - calls_before, rec->optimizer_calls);
  EXPECT_GT(containment->value(), containment_before);
  obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_NE(snap.Find("xia.advisor.runs"), nullptr);
  EXPECT_GT(snap.Find("xia.advisor.runs")->counter, 0u);
  ASSERT_NE(snap.Find("xia.optimizer.cost_model.evaluations"), nullptr);
  EXPECT_GT(snap.Find("xia.optimizer.cost_model.evaluations")->counter, 0u);
}

TEST_F(AdvisorE2eTest, ReportOnEmptyRecommendation) {
  AdvisorOptions options;
  options.disk_budget_bytes = 0;  // nothing fits
  const engine::Workload workload = PaperWorkload();
  auto rec = advisor_->Recommend(workload, options);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->indexes.empty());
  auto report = RenderReport(workload, *rec, &store_, &stats_);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("no indexes pay off"), std::string::npos);
}

}  // namespace
}  // namespace xia::advisor
