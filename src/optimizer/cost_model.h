// The cost model: timeron estimates for plan operators and for index
// maintenance.
//
// Mirrors the structure (not the coefficients) of a disk-based XML
// optimizer's model: I/O by pages with sequential/random asymmetry, CPU by
// nodes navigated and comparisons evaluated, index access by levels plus
// leaf pages.

#ifndef XIA_OPTIMIZER_COST_MODEL_H_
#define XIA_OPTIMIZER_COST_MODEL_H_

#include "engine/normalizer.h"
#include "engine/query.h"
#include "storage/cost_constants.h"
#include "storage/statistics.h"

namespace xia::optimizer {

/// Stateless cost formulas parameterized by CostConstants.
class CostModel {
 public:
  explicit CostModel(const storage::CostConstants& cc) : cc_(cc) {}

  const storage::CostConstants& constants() const { return cc_; }

  /// Full scan of a collection evaluating `query` on every document.
  double CollectionScanCost(const storage::CollectionStatistics& data,
                            const engine::NormalizedQuery& query) const;

  /// One index access: descend `levels`, then read the leaf pages holding
  /// `entries_scanned` entries of `avg_entry_bytes` each.
  double IndexAccessCost(uint32_t levels, double entries_scanned,
                         double avg_entry_bytes) const;

  /// Fetch + residual re-evaluation of the query on `docs` candidate
  /// documents: docs * FetchCostPerDocument.
  double FetchAndResidualCost(double docs,
                              const storage::CollectionStatistics& data,
                              const engine::NormalizedQuery& query) const;

  /// Fetch + residual re-evaluation cost of one candidate document.
  double FetchCostPerDocument(const storage::CollectionStatistics& data,
                              const engine::NormalizedQuery& query) const;

  /// CPU cost of intersecting RID lists with the given total entries.
  double RidIntersectionCost(double total_entries) const;

  /// Cost of inserting a document with the given bytes and node count
  /// (excluding index maintenance, which the advisor charges separately —
  /// §III: "In some database systems, such as DB2, the optimizer cost
  /// estimates do not include the cost of updating indexes").
  double DocumentInsertCost(double doc_bytes, double doc_nodes) const;

  /// Cost of removing `docs` documents of average size once found.
  double DocumentRemoveCost(double docs, double avg_doc_bytes) const;

  /// Maintenance cost mc(x, s) of index x (described by `index_stats`,
  /// built over a collection with `collection_docs` documents) for a
  /// statement that inserts or deletes `docs_touched` documents. Zero for
  /// query statements is enforced by the caller.
  double MaintenanceCost(const storage::IndexStats& index_stats,
                         double collection_docs, double docs_touched) const;

  /// CPU cost of evaluating the query once against one document.
  double PerDocumentEvalCost(const storage::CollectionStatistics& data,
                             const engine::NormalizedQuery& query) const;

 private:
  const storage::CostConstants& cc_;
};

}  // namespace xia::optimizer

#endif  // XIA_OPTIMIZER_COST_MODEL_H_
