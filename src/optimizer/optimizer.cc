#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fault/fault.h"
#include "optimizer/selectivity.h"
#include "xpath/containment.h"

namespace xia::optimizer {

namespace {

// Crude node-count estimate for an unparsed document text: tags come in
// pairs, so '<' count halves.
double EstimateNodesFromText(const std::string& text) {
  double open = 0;
  for (char c : text) {
    if (c == '<') open += 1;
  }
  return std::max(1.0, open / 2.0);
}

// The query a statement finds its documents by: the query itself, or a
// delete's or update's normalized match path. Inserts have none.
Result<engine::NormalizedQuery> NormalizeMatch(
    const engine::Statement& statement) {
  if (statement.is_delete()) return engine::NormalizeDeleteMatch(statement);
  if (statement.is_update()) return engine::NormalizeUpdateMatch(statement);
  return engine::Normalize(statement);
}

// One candidate index access for one predicate, before it is chosen into
// a plan (PlanLeg without the copied names, patterns and predicate).
struct LegCost {
  const storage::IndexDef* index = nullptr;
  size_t predicate = 0;
  double entries = 0;
  double docs = 0;
  double access = 0;
  // access plus fetching and re-checking `docs` documents.
  double total = 0;
};

}  // namespace

Result<PreparedStatement> Optimizer::Prepare(
    const engine::Statement& statement) const {
  PreparedStatement prepared;
  prepared.statement = &statement;
  if (statement.is_insert()) {
    // Planning an insert needs no statistics; maintenance costing uses
    // them when the collection has any.
    auto data = statistics_->Get(statement.collection());
    if (data.ok()) prepared.data = *data;
    const engine::InsertSpec& ins = statement.insert_spec();
    prepared.scan.kind = Plan::Kind::kInsert;
    prepared.scan.est_cost = cost_model_.DocumentInsertCost(
        static_cast<double>(ins.document_text.size()),
        EstimateNodesFromText(ins.document_text));
    prepared.scan.est_result_docs = 1;
    return prepared;
  }

  XIA_ASSIGN_OR_RETURN(prepared.query, NormalizeMatch(statement));
  XIA_ASSIGN_OR_RETURN(prepared.data,
                       statistics_->Get(prepared.query.collection));
  const storage::CollectionStatistics& data = *prepared.data;
  const engine::NormalizedQuery& query = prepared.query;
  const storage::CostConstants& cc = cost_model_.constants();
  const double ndocs = static_cast<double>(data.document_count());

  prepared.scan.kind = Plan::Kind::kCollectionScan;
  prepared.scan.est_cost = cost_model_.CollectionScanCost(data, query);
  prepared.fetch_cost_per_doc = cost_model_.FetchCostPerDocument(data, query);
  prepared.predicates = ExtractIndexablePredicates(query);
  prepared.pattern_entries.reserve(prepared.predicates.size());

  // Documents that truly satisfy the query: the spine's structural
  // selectivity, scaled by each comparison predicate.
  double docs =
      std::min(ndocs, data.EstimatePathCardinality(query.path.Spine()));
  for (const IndexablePredicate& pred : prepared.predicates) {
    // Entries that truly satisfy the predicate, estimated against the
    // predicate pattern's own value distribution. Any covering index holds
    // at least these entries in the scanned value range, which keeps wide
    // indexes (whose huge distinct-key counts would otherwise dilute
    // equality selectivity) from looking cheaper than exact-match ones.
    const storage::IndexStats pattern_stats =
        data.DeriveIndexStats(pred.AsIndexPattern(), cc);
    const double sel = ValueSelectivity(pattern_stats, pred.op, pred.literal);
    prepared.pattern_entries.push_back(
        pred.existence ? static_cast<double>(pattern_stats.entry_count)
                       : sel * static_cast<double>(pattern_stats.entry_count));
    if (ndocs == 0) continue;
    const double qualifying_nodes =
        data.EstimatePathCardinality(pred.pattern) * sel;
    docs *= std::min(1.0, qualifying_nodes / ndocs);
  }
  prepared.scan.est_result_docs = ndocs == 0 ? 0.0 : std::max(0.0, docs);

  const double result_docs = prepared.scan.est_result_docs;
  if (statement.is_delete()) {
    const double avg_doc_bytes =
        ndocs == 0 ? 0.0
                   : static_cast<double>(data.data_pages()) *
                         static_cast<double>(cc.page_size) / ndocs;
    prepared.write_surcharge =
        cost_model_.DocumentRemoveCost(result_docs, avg_doc_bytes);
  } else if (statement.is_update()) {
    // Modified nodes per touched document.
    const double target_nodes_per_doc =
        ndocs == 0 ? 0.0
                   : data.EstimatePathCardinality(
                         statement.update_spec().target) /
                         ndocs;
    prepared.write_surcharge = result_docs *
                               std::max(1.0, target_nodes_per_doc) *
                               cc.index_write_cost;
  }
  return prepared;
}

Plan Optimizer::BestFindPlan(const PreparedStatement& prepared) const {
  const Plan& scan = prepared.scan;
  const double ndocs = static_cast<double>(prepared.data->document_count());
  const double fetch_cost_per_doc = prepared.fetch_cost_per_doc;
  const std::vector<const storage::IndexDef*> indexes =
      catalog_->IndexesFor(prepared.query.collection);

  // Find the cheapest matching index per indexable predicate.
  std::vector<LegCost> legs;
  for (size_t p = 0; p < prepared.predicates.size(); ++p) {
    const IndexablePredicate& pred = prepared.predicates[p];
    LegCost best;
    for (const storage::IndexDef* index : indexes) {
      if (index->is_virtual && !options_.use_virtual_indexes) continue;
      if (!index->is_virtual && !options_.use_real_indexes) continue;
      // Existence tests need a structural index; value comparisons need a
      // value index of the literal's type.
      if (index->pattern.structural != pred.existence) continue;
      if (!pred.existence && index->pattern.type != pred.type) continue;
      if (!xpath::Covers(index->pattern.path, pred.pattern)) continue;
      if (index->stats.entry_count == 0) continue;

      LegCost leg;
      leg.index = index;
      leg.predicate = p;
      // Structural indexes have no value key: an existence probe scans the
      // whole index and filters RIDs by the residual, so it pays the full
      // entry count. Value probes seek into the covered range.
      const double sel =
          pred.existence
              ? 1.0
              : ValueSelectivity(index->stats, pred.op, pred.literal);
      leg.entries = std::max(
          {1.0, sel * static_cast<double>(index->stats.entry_count),
           prepared.pattern_entries[p]});
      leg.docs = std::min(ndocs, leg.entries);
      leg.access = cost_model_.IndexAccessCost(
          index->stats.levels, leg.entries, index->stats.avg_key_length);
      leg.total = leg.access + leg.docs * fetch_cost_per_doc;
      if (best.index == nullptr || leg.total < best.total) best = leg;
    }
    if (best.index != nullptr) legs.push_back(best);
  }

  // The scan alternative plus one single-index plan per leg.
  XIA_OBS_COUNT("xia.optimizer.plans_considered", 1 + legs.size());
  Plan::Kind best_kind = Plan::Kind::kCollectionScan;
  double best_cost = scan.est_cost;
  std::vector<const LegCost*> chosen;

  // Single-index plans.
  for (const LegCost& leg : legs) {
    if (leg.total < best_cost) {
      best_kind = Plan::Kind::kIndexScan;
      best_cost = leg.total;
      chosen = {&leg};
    }
  }

  // Index-ANDing: add legs most-selective first while the estimate keeps
  // improving. An unselective leg costs its access and intersection work
  // but barely shrinks the fetched document set, so the full-leg AND is
  // often not the best AND.
  std::vector<LegCost> ordered;
  if (options_.enable_index_anding && legs.size() >= 2) {
    ordered = legs;
    std::sort(ordered.begin(), ordered.end(),
              [](const LegCost& a, const LegCost& b) {
                return a.docs < b.docs;
              });
    double access = 0;
    double entries = 0;
    double doc_fraction = 1.0;
    double best_and_cost = std::numeric_limits<double>::infinity();
    size_t best_and_legs = 0;
    for (size_t k = 0; k < ordered.size(); ++k) {
      access += ordered[k].access;
      entries += ordered[k].entries;
      doc_fraction *= ndocs == 0 ? 0.0 : std::min(1.0, ordered[k].docs / ndocs);
      if (k == 0) continue;
      XIA_OBS_COUNT("xia.optimizer.plans_considered", 1);
      const double and_docs = ndocs * doc_fraction;
      const double cost = access + cost_model_.RidIntersectionCost(entries) +
                          and_docs * fetch_cost_per_doc;
      if (cost < best_and_cost) {
        best_and_cost = cost;
        best_and_legs = k + 1;
      }
    }
    if (best_and_legs != 0 && best_and_cost < best_cost) {
      best_kind = Plan::Kind::kIndexAnd;
      best_cost = best_and_cost;
      chosen.clear();
      for (size_t k = 0; k < best_and_legs; ++k) chosen.push_back(&ordered[k]);
    }
  }

  if (best_kind == Plan::Kind::kCollectionScan) return scan;
  Plan plan;
  plan.kind = best_kind;
  plan.est_cost = best_cost;
  plan.est_result_docs = scan.est_result_docs;
  plan.legs.reserve(chosen.size());
  for (const LegCost* leg : chosen) {
    PlanLeg& out = plan.legs.emplace_back();
    out.index_name = leg->index->name;
    out.index_pattern = leg->index->pattern;
    out.index_is_virtual = leg->index->is_virtual;
    out.predicate = prepared.predicates[leg->predicate];
    out.est_entries = leg->entries;
    out.est_docs = leg->docs;
    out.est_access_cost = leg->access;
    plan.uses_virtual_index = plan.uses_virtual_index || out.index_is_virtual;
  }
  return plan;
}

Result<Plan> Optimizer::OptimizeImpl(const PreparedStatement& prepared,
                                     bool allow_indexes) const {
  XIA_FAULT_INJECT(fault::points::kOptimizerPlan);
  XIA_RETURN_IF_ERROR(fault::CheckInterrupt(options_.deadline));
  optimize_calls_.Add(1);
  XIA_OBS_COUNT("xia.optimizer.optimize_calls", 1);
  const engine::Statement& statement = *prepared.statement;
  if (statement.is_insert()) return prepared.scan;
  Plan plan = allow_indexes ? BestFindPlan(prepared) : prepared.scan;
  if (statement.is_delete() || statement.is_update()) {
    plan.kind =
        statement.is_delete() ? Plan::Kind::kDelete : Plan::Kind::kUpdate;
    plan.est_cost += prepared.write_surcharge;
  }
  return plan;
}

Result<Plan> Optimizer::Optimize(const PreparedStatement& prepared) const {
  return OptimizeImpl(prepared, /*allow_indexes=*/true);
}

Result<Plan> Optimizer::OptimizeWithoutIndexes(
    const PreparedStatement& prepared) const {
  return OptimizeImpl(prepared, /*allow_indexes=*/false);
}

Result<Plan> Optimizer::Optimize(const engine::Statement& statement) const {
  XIA_ASSIGN_OR_RETURN(const PreparedStatement prepared, Prepare(statement));
  return Optimize(prepared);
}

Result<Plan> Optimizer::OptimizeWithoutIndexes(
    const engine::Statement& statement) const {
  XIA_ASSIGN_OR_RETURN(const PreparedStatement prepared, Prepare(statement));
  return OptimizeWithoutIndexes(prepared);
}

Result<std::vector<xpath::IndexPattern>> Optimizer::EnumerateIndexes(
    const engine::Statement& statement) const {
  XIA_FAULT_INJECT(fault::points::kOptimizerPlan);
  XIA_RETURN_IF_ERROR(fault::CheckInterrupt(options_.deadline));
  optimize_calls_.Add(1);
  XIA_OBS_COUNT("xia.optimizer.optimize_calls", 1);
  XIA_OBS_COUNT("xia.optimizer.enumerate_calls", 1);
  if (statement.is_insert()) return std::vector<xpath::IndexPattern>{};

  auto normalized = NormalizeMatch(statement);
  if (!normalized.ok()) return normalized.status();

  // Plant the //* virtual universal index (one per value type) and run the
  // index-matching step against it. Everything indexable matches the
  // universal pattern; what comes out is the set of rewritten,
  // predicate-aware patterns of the statement (§IV).
  xpath::Path universal;
  universal.Append(xpath::Axis::kDescendant, "*");
  const xpath::IndexPattern universal_string{universal,
                                             xpath::ValueType::kString};
  const xpath::IndexPattern universal_numeric{universal,
                                              xpath::ValueType::kNumeric};
  const xpath::IndexPattern universal_structural{
      universal, xpath::ValueType::kString, /*structural=*/true};

  std::vector<xpath::IndexPattern> out;
  for (const IndexablePredicate& pred :
       ExtractIndexablePredicates(*normalized)) {
    const xpath::IndexPattern& matched_against =
        pred.existence
            ? universal_structural
            : (pred.type == xpath::ValueType::kNumeric ? universal_numeric
                                                       : universal_string);
    if (!xpath::Covers(matched_against.path, pred.pattern)) continue;
    xpath::IndexPattern candidate = pred.AsIndexPattern();
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

double Optimizer::MaintenanceCost(
    const PreparedStatement& prepared,
    const xpath::IndexPattern& index_pattern,
    const storage::IndexStats& index_stats) const {
  const engine::Statement& statement = *prepared.statement;
  if (statement.is_query() || prepared.data == nullptr) return 0.0;
  const storage::CollectionStatistics& data = *prepared.data;

  if (statement.is_update()) {
    // A value update touches the index only if the index can contain the
    // updated nodes: some data path is matched by both the index pattern
    // and the update target.
    const xpath::Path& target = statement.update_spec().target;
    double affected_nodes = 0;
    for (const auto& [path_string, path_stats] : data.paths()) {
      if (xpath::MatchesLabelPath(index_pattern.path, path_stats.labels) &&
          xpath::MatchesLabelPath(target, path_stats.labels)) {
        affected_nodes += static_cast<double>(path_stats.count);
      }
    }
    if (affected_nodes == 0) return 0.0;
    const double docs_touched = prepared.scan.est_result_docs;
    const double nodes_per_doc =
        data.document_count() == 0
            ? 0.0
            : affected_nodes / static_cast<double>(data.document_count());
    // Old key out, new key in: two entry operations per modified node.
    const double per_entry =
        static_cast<double>(index_stats.levels) *
            cost_model_.constants().random_page_cost *
            cost_model_.constants().maintenance_traverse_factor * 0.1 +
        cost_model_.constants().index_write_cost *
            (index_stats.avg_key_length +
             static_cast<double>(
                 cost_model_.constants().index_entry_overhead)) /
            static_cast<double>(cost_model_.constants().page_size) * 8.0;
    return 2.0 * docs_touched * nodes_per_doc * per_entry;
  }

  // An insert adds one document; a delete removes the ones it matches.
  const double docs_touched =
      statement.is_delete() ? prepared.scan.est_result_docs : 1.0;
  return cost_model_.MaintenanceCost(
      index_stats, static_cast<double>(data.document_count()), docs_touched);
}

double Optimizer::MaintenanceCost(
    const engine::Statement& statement,
    const xpath::IndexPattern& index_pattern,
    const storage::IndexStats& index_stats) const {
  auto prepared = Prepare(statement);
  if (!prepared.ok()) return 0.0;
  return MaintenanceCost(*prepared, index_pattern, index_stats);
}

}  // namespace xia::optimizer
