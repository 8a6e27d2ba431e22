#include "advisor/advisor.h"

#include <algorithm>

#include "advisor/dag.h"
#include "advisor/generalize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace xia::advisor {

namespace {

std::string MakeDdl(const RecommendedIndex& index) {
  if (index.pattern.structural) {
    return StringPrintf(
        "CREATE STRUCTURAL INDEX %s ON %s(xmlcol) USING XMLPATTERN '%s'",
        "idx", index.collection.c_str(),
        index.pattern.path.ToString().c_str());
  }
  return StringPrintf(
      "CREATE INDEX %s ON %s(xmlcol) GENERATE KEY USING XMLPATTERN '%s' AS "
      "SQL %s",
      "idx", index.collection.c_str(), index.pattern.path.ToString().c_str(),
      index.pattern.type == xpath::ValueType::kNumeric ? "DOUBLE"
                                                       : "VARCHAR(64)");
}

}  // namespace

Result<CandidateSet> IndexAdvisor::BuildCandidates(
    const engine::Workload& workload, bool generalize, obs::Tracer* tracer,
    const fault::Deadline& deadline) {
  obs::ScopedSpan enumerate_span(tracer, "enumerate");
  storage::Catalog scratch(store_, statistics_, cc_);
  optimizer::Optimizer opt(store_, &scratch, statistics_);
  XIA_ASSIGN_OR_RETURN(CandidateSet set,
                       EnumerateBasicCandidates(workload, opt, deadline));
  set.enumeration_optimizer_calls = opt.optimize_calls();
  enumerate_span.AnnotateItems(static_cast<double>(set.basic_count));
  enumerate_span.End();

  obs::ScopedSpan generalize_span(tracer, "generalize");
  if (generalize) GeneralizeCandidates(&set);
  generalize_span.AnnotateItems(
      static_cast<double>(set.size() - set.basic_count));
  generalize_span.End();

  obs::ScopedSpan statistics_span(tracer, "statistics");
  XIA_RETURN_IF_ERROR(PopulateStatistics(&set, *statistics_, cc_));
  statistics_span.AnnotateItems(static_cast<double>(set.size()));
  statistics_span.End();

  XIA_OBS_GAUGE_SET("xia.advisor.basic_candidates",
                    static_cast<double>(set.basic_count));
  XIA_OBS_GAUGE_SET("xia.advisor.total_candidates",
                    static_cast<double>(set.size()));
  return set;
}

Result<Recommendation> IndexAdvisor::RecommendImpl(
    const engine::Workload& input_workload, const AdvisorOptions& options,
    bool all_index) {
  Stopwatch timer;
  XIA_OBS_COUNT("xia.advisor.runs", 1);
  // One deadline covers the whole pipeline: enumeration and search both
  // poll it and degrade to best-so-far instead of erroring out.
  const fault::Deadline deadline = options.budget_ms > 0
                                       ? fault::Deadline::AfterMillis(
                                             options.budget_ms)
                                       : fault::Deadline::Infinite();
  // The tracer records each pipeline phase as a depth-0 span, annotated
  // with the delta of the process-wide optimizer-call counter — every
  // optimizer the pipeline touches feeds it, so phase deltas tile the
  // run's total call count.
  obs::Tracer tracer;
  tracer.TrackCounter(obs::MetricsRegistry::Global().GetCounter(
      "xia.optimizer.optimize_calls"));

  // Duplicate statements fold into one probe with a summed frequency
  // (§III weights each unique statement by its frequency).
  obs::ScopedSpan compact_span(&tracer, "compact");
  const engine::Workload workload = engine::CompactWorkload(input_workload);
  compact_span.AnnotateItems(static_cast<double>(workload.size()));
  compact_span.End();

  XIA_ASSIGN_OR_RETURN(
      CandidateSet set,
      BuildCandidates(workload, options.generalize, &tracer, deadline));

  obs::ScopedSpan dag_span(&tracer, "dag");
  const std::vector<int> roots = BuildDag(&set);
  dag_span.AnnotateItems(static_cast<double>(roots.size()));
  dag_span.End();

  obs::ScopedSpan init_span(&tracer, "initialize");
  storage::Catalog whatif_catalog(store_, statistics_, cc_);
  BenefitEvaluator::Options eval_options;
  eval_options.use_subconfigurations = options.use_subconfigurations;
  eval_options.use_affected_sets = options.use_affected_sets;
  eval_options.charge_maintenance = options.charge_maintenance;
  BenefitEvaluator evaluator(&workload, &set, &whatif_catalog, statistics_,
                             store_, eval_options);
  XIA_RETURN_IF_ERROR(evaluator.Initialize());
  init_span.End();

  obs::ScopedSpan search_span(&tracer, "search");
  SearchOutcome outcome;
  if (all_index) {
    // Every basic candidate, no budget constraint.
    std::vector<int> selected;
    for (size_t i = 0; i < set.basic_count; ++i) {
      selected.push_back(static_cast<int>(i));
    }
    outcome.selected = selected;
    for (int id : selected) {
      outcome.total_size_bytes +=
          static_cast<double>(set[static_cast<size_t>(id)].size_bytes());
      ++outcome.specific_count;
    }
    XIA_ASSIGN_OR_RETURN(outcome.benefit,
                         evaluator.ConfigurationBenefit(selected));
  } else {
    SearchOptions search_options;
    search_options.disk_budget_bytes = options.disk_budget_bytes;
    search_options.beta = options.beta;
    search_options.deadline = deadline;
    search_options.cancel = options.cancel;
    XIA_ASSIGN_OR_RETURN(
        outcome,
        RunSearch(options.algorithm, set, roots, &evaluator, search_options));
  }
  search_span.AnnotateItems(static_cast<double>(outcome.selected.size()));
  search_span.End();

  obs::ScopedSpan finalize_span(&tracer, "finalize");
  Recommendation rec;
  for (int id : outcome.selected) {
    const Candidate& c = set[static_cast<size_t>(id)];
    RecommendedIndex ri;
    ri.collection = c.collection;
    ri.pattern = c.pattern;
    ri.is_general = c.is_general;
    ri.size_bytes = c.size_bytes();
    ri.ddl = MakeDdl(ri);
    ri.stats = c.stats;
    rec.indexes.push_back(std::move(ri));
  }
  rec.total_size_bytes = outcome.total_size_bytes;
  rec.base_cost = evaluator.base_workload_cost();
  rec.benefit = outcome.benefit;
  const double with_config = rec.base_cost - rec.benefit;
  rec.est_speedup = with_config <= 0 ? 1e12 : rec.base_cost / with_config;
  rec.basic_candidates = set.basic_count;
  rec.total_candidates = set.size();
  rec.general_count = outcome.general_count;
  rec.specific_count = outcome.specific_count;
  rec.partial = set.partial || outcome.partial;
  if (rec.partial) XIA_OBS_COUNT("xia.advisor.partial_runs", 1);
  // Enumeration probes ran on a short-lived optimizer inside
  // BuildCandidates; count them too, not just the evaluator's what-ifs.
  rec.optimizer_calls =
      set.enumeration_optimizer_calls + evaluator.optimizer_calls();
  finalize_span.AnnotateItems(static_cast<double>(rec.indexes.size()));
  finalize_span.End();

  rec.trace = tracer.Finish();
  for (const obs::SpanRecord& span : rec.trace.spans) {
    if (span.depth == 0) {
      XIA_OBS_OBSERVE_LATENCY("xia.advisor.phase.seconds", span.seconds);
    }
  }
  XIA_OBS_GAUGE_SET("xia.advisor.selected_indexes",
                    static_cast<double>(rec.indexes.size()));
  rec.advisor_seconds = timer.ElapsedSeconds();
  XIA_OBS_OBSERVE_LATENCY("xia.advisor.recommend.seconds",
                          rec.advisor_seconds);
  return rec;
}

Result<Recommendation> IndexAdvisor::Recommend(const engine::Workload& workload,
                                               const AdvisorOptions& options) {
  return RecommendImpl(workload, options, /*all_index=*/false);
}

Result<Recommendation> IndexAdvisor::AllIndexConfiguration(
    const engine::Workload& workload) {
  AdvisorOptions options;
  options.generalize = false;
  return RecommendImpl(workload, options, /*all_index=*/true);
}

Status IndexAdvisor::Materialize(const Recommendation& recommendation,
                                 storage::Catalog* catalog,
                                 const std::string& name_prefix) const {
  int i = 0;
  for (const RecommendedIndex& ri : recommendation.indexes) {
    auto created = catalog->CreateIndex(
        StringPrintf("%s_%d", name_prefix.c_str(), i++), ri.collection,
        ri.pattern);
    if (!created.ok()) return created.status();
  }
  return Status::OK();
}

}  // namespace xia::advisor
