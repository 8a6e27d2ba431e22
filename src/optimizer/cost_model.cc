#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace xia::optimizer {

namespace {

// Number of predicate comparisons a query performs per candidate node.
double PredicateCount(const engine::NormalizedQuery& query) {
  double n = 0;
  for (const auto& qs : query.path.steps()) {
    n += static_cast<double>(qs.predicates.size());
  }
  return n;
}

}  // namespace

double CostModel::PerDocumentEvalCost(
    const storage::CollectionStatistics& data,
    const engine::NormalizedQuery& query) const {
  const double nodes = data.avg_nodes_per_doc();
  // Navigation touches each node at most once per spine; predicates add
  // comparisons on candidate nodes (approximated as one per node fraction).
  return nodes * cc_.cpu_node_cost +
         PredicateCount(query) * cc_.cpu_compare_cost * std::max(1.0, nodes * 0.1);
}

double CostModel::CollectionScanCost(
    const storage::CollectionStatistics& data,
    const engine::NormalizedQuery& query) const {
  XIA_OBS_COUNT("xia.optimizer.cost_model.evaluations", 1);
  const double io =
      static_cast<double>(data.data_pages()) * cc_.seq_page_cost;
  const double cpu = static_cast<double>(data.document_count()) *
                     PerDocumentEvalCost(data, query);
  return io + cpu;
}

double CostModel::IndexAccessCost(uint32_t levels, double entries_scanned,
                                  double avg_entry_bytes) const {
  XIA_OBS_COUNT("xia.optimizer.cost_model.evaluations", 1);
  const double descend = static_cast<double>(levels) * cc_.random_page_cost;
  const double entry_bytes =
      avg_entry_bytes + static_cast<double>(cc_.index_entry_overhead);
  const double leaf_pages = std::max(
      1.0, entries_scanned * entry_bytes / static_cast<double>(cc_.page_size));
  return descend + leaf_pages * cc_.seq_page_cost +
         entries_scanned * cc_.cpu_index_entry_cost;
}

double CostModel::FetchAndResidualCost(
    double docs, const storage::CollectionStatistics& data,
    const engine::NormalizedQuery& query) const {
  return docs * FetchCostPerDocument(data, query);
}

double CostModel::FetchCostPerDocument(
    const storage::CollectionStatistics& data,
    const engine::NormalizedQuery& query) const {
  return cc_.fetch_doc_cost + PerDocumentEvalCost(data, query);
}

double CostModel::RidIntersectionCost(double total_entries) const {
  return total_entries * cc_.cpu_rid_intersect_cost;
}

double CostModel::DocumentInsertCost(double doc_bytes,
                                     double doc_nodes) const {
  const double pages =
      std::max(1.0, doc_bytes / static_cast<double>(cc_.page_size));
  return pages * cc_.index_write_cost + doc_nodes * cc_.cpu_node_cost;
}

double CostModel::DocumentRemoveCost(double docs, double avg_doc_bytes) const {
  const double pages_per_doc =
      std::max(1.0, avg_doc_bytes / static_cast<double>(cc_.page_size));
  return docs * pages_per_doc * cc_.index_write_cost;
}

double CostModel::MaintenanceCost(const storage::IndexStats& index_stats,
                                  double collection_docs,
                                  double docs_touched) const {
  XIA_OBS_COUNT("xia.optimizer.cost_model.evaluations", 1);
  if (docs_touched <= 0) return 0.0;
  const double entries_per_doc =
      collection_docs <= 0
          ? 0.0
          : static_cast<double>(index_stats.entry_count) / collection_docs;
  const double entries = entries_per_doc * docs_touched;
  // Each maintained entry descends the tree and dirties a leaf page share.
  const double per_entry =
      static_cast<double>(index_stats.levels) * cc_.random_page_cost *
          cc_.maintenance_traverse_factor * 0.1 +
      cc_.index_write_cost *
          (index_stats.avg_key_length +
           static_cast<double>(cc_.index_entry_overhead)) /
          static_cast<double>(cc_.page_size) * 8.0;
  return entries * per_entry;
}

}  // namespace xia::optimizer
