#include "advisor/report.h"

#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "util/string_util.h"

namespace xia::advisor {

namespace {

const char* PlanKindName(optimizer::Plan::Kind kind) {
  switch (kind) {
    case optimizer::Plan::Kind::kCollectionScan:
      return "SCAN";
    case optimizer::Plan::Kind::kIndexScan:
      return "INDEX";
    case optimizer::Plan::Kind::kIndexAnd:
      return "IXAND";
    case optimizer::Plan::Kind::kInsert:
      return "INSERT";
    case optimizer::Plan::Kind::kDelete:
      return "DELETE";
    case optimizer::Plan::Kind::kUpdate:
      return "UPDATE";
  }
  return "?";
}

}  // namespace

Result<std::string> RenderReport(const engine::Workload& workload,
                                 const Recommendation& recommendation,
                                 storage::DocumentStore* store,
                                 const storage::StatisticsCatalog* statistics,
                                 const ReportOptions& options) {
  std::string out;
  out += "=== XML Index Advisor report ===\n";
  out += StringPrintf(
      "workload: %zu statements | candidates: %zu basic, %zu total\n",
      workload.size(), recommendation.basic_candidates,
      recommendation.total_candidates);
  out += StringPrintf(
      "recommended: %zu indexes, %s | est. workload speedup %.2fx\n",
      recommendation.indexes.size(),
      HumanBytes(recommendation.total_size_bytes).c_str(),
      recommendation.est_speedup);
  out += StringPrintf(
      "advisor work: %llu optimizer calls in %.3fs\n",
      static_cast<unsigned long long>(recommendation.optimizer_calls),
      recommendation.advisor_seconds);
  if (recommendation.partial) {
    out +=
        "partial: true (time budget hit; best configuration found so far)\n";
  }

  if (!recommendation.trace.empty()) {
    out += "\n--- pipeline phases ---\n";
    out += recommendation.trace.ToString();
    out += StringPrintf(
        "phase total: %.3fs of %.3fs advisor wall time\n",
        recommendation.trace.PhaseSeconds(), recommendation.advisor_seconds);
  }

  if (options.show_ddl) {
    out += "\n--- recommended DDL ---\n";
    if (recommendation.indexes.empty()) {
      out += "(no indexes pay off under this budget)\n";
    }
    for (const RecommendedIndex& ri : recommendation.indexes) {
      out += StringPrintf("%s;  -- %s%s\n", ri.ddl.c_str(),
                          HumanBytes(static_cast<double>(ri.size_bytes))
                              .c_str(),
                          ri.is_general ? ", general" : "");
    }
  }

  if (options.per_statement) {
    // Re-optimize with the configuration virtual, costed with the
    // statistics the advisor used where the recommendation carries them.
    storage::Catalog catalog(store, statistics);
    int i = 0;
    for (const RecommendedIndex& ri : recommendation.indexes) {
      auto created = catalog.CreateVirtualIndex(
          StringPrintf("report_%d", i++), ri.collection, ri.pattern,
          ri.stats ? &*ri.stats : nullptr);
      if (!created.ok()) return created.status();
    }
    optimizer::Optimizer opt(store, &catalog, statistics);

    out += "\n--- per-statement impact ---\n";
    out += StringPrintf("%-26s %6s %12s %12s %9s  %s\n", "statement", "freq",
                        "cost before", "cost after", "gain", "plan");
    for (const engine::Statement& stmt : workload) {
      XIA_ASSIGN_OR_RETURN(const optimizer::PreparedStatement prepared,
                           opt.Prepare(stmt));
      XIA_ASSIGN_OR_RETURN(const optimizer::Plan before,
                           opt.OptimizeWithoutIndexes(prepared));
      XIA_ASSIGN_OR_RETURN(const optimizer::Plan after,
                           opt.Optimize(prepared));
      const double gain =
          before.est_cost <= 0
              ? 0
              : 100.0 * (before.est_cost - after.est_cost) / before.est_cost;
      std::string plan_text = PlanKindName(after.kind);
      for (const auto& leg : after.legs) {
        plan_text += " " + leg.index_pattern.path.ToString();
      }
      out += StringPrintf("%-26.26s %6g %12.1f %12.1f %8.1f%%  %s\n",
                          (stmt.label.empty() ? engine::ToText(stmt)
                                              : stmt.label)
                              .c_str(),
                          stmt.frequency, before.est_cost, after.est_cost,
                          gain, plan_text.c_str());
    }
  }
  return out;
}

}  // namespace xia::advisor
