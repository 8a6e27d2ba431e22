// Selectivity estimation from statistics.
//
// Two flavours are needed:
//  * value selectivity against a specific *index's* key distribution —
//    determines how much of the index a lookup scans;
//  * value selectivity against the *predicate pattern's* data distribution —
//    determines how many truly-qualifying nodes (and documents) come out.
//
// Both are ValueSelectivity; Optimizer::Prepare derives each predicate
// pattern's statistics once per statement for the second.

#ifndef XIA_OPTIMIZER_SELECTIVITY_H_
#define XIA_OPTIMIZER_SELECTIVITY_H_

#include "optimizer/plan.h"
#include "storage/statistics.h"

namespace xia::optimizer {

/// Default selectivity for range predicates over string domains (no
/// histogram information for lexicographic ranges).
inline constexpr double kDefaultStringRangeSelectivity = 1.0 / 3.0;
/// Floor applied to every estimate to avoid zero-cost plans.
inline constexpr double kMinSelectivity = 1e-9;

/// Fraction of keys in a domain described by `stats` that satisfy
/// (op, literal). Uses uniformity over [min, max] for numeric ranges and
/// 1/distinct for equality.
double ValueSelectivity(const storage::IndexStats& stats, xpath::CompareOp op,
                        const xpath::Literal& literal);

}  // namespace xia::optimizer

#endif  // XIA_OPTIMIZER_SELECTIVITY_H_
