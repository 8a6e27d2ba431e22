#include "optimizer/selectivity.h"

#include <algorithm>

namespace xia::optimizer {

namespace {

double Clamp01(double v) {
  return std::max(kMinSelectivity, std::min(1.0, v));
}

double NumericRangeFraction(double lo, double hi, xpath::CompareOp op,
                            double v) {
  if (hi <= lo) {
    // Degenerate domain: everything has one value.
    switch (op) {
      case xpath::CompareOp::kLt:
        return v > lo ? 1.0 : 0.0;
      case xpath::CompareOp::kLe:
        return v >= lo ? 1.0 : 0.0;
      case xpath::CompareOp::kGt:
        return v < lo ? 1.0 : 0.0;
      case xpath::CompareOp::kGe:
        return v <= lo ? 1.0 : 0.0;
      default:
        return 1.0;
    }
  }
  const double width = hi - lo;
  switch (op) {
    case xpath::CompareOp::kLt:
    case xpath::CompareOp::kLe:
      return (v - lo) / width;
    case xpath::CompareOp::kGt:
    case xpath::CompareOp::kGe:
      return (hi - v) / width;
    default:
      return 1.0;
  }
}

}  // namespace

double ValueSelectivity(const storage::IndexStats& stats, xpath::CompareOp op,
                        const xpath::Literal& literal) {
  if (stats.entry_count == 0) return kMinSelectivity;
  const double distinct =
      std::max<double>(1.0, static_cast<double>(stats.distinct_keys));
  switch (op) {
    case xpath::CompareOp::kEq:
      return Clamp01(1.0 / distinct);
    case xpath::CompareOp::kNe:
      return Clamp01(1.0 - 1.0 / distinct);
    case xpath::CompareOp::kLt:
    case xpath::CompareOp::kLe:
    case xpath::CompareOp::kGt:
    case xpath::CompareOp::kGe: {
      if (literal.type == xpath::ValueType::kNumeric) {
        // Prefer the equi-depth histogram; fall back to uniformity over
        // [min, max] when histograms are disabled.
        if (stats.numeric_quantiles.size() >= 2) {
          const double below =
              storage::HistogramCdf(stats.numeric_quantiles,
                                    literal.numeric_value);
          const bool less =
              op == xpath::CompareOp::kLt || op == xpath::CompareOp::kLe;
          return Clamp01(less ? below : 1.0 - below);
        }
        return Clamp01(NumericRangeFraction(stats.min_numeric,
                                            stats.max_numeric, op,
                                            literal.numeric_value));
      }
      return kDefaultStringRangeSelectivity;
    }
  }
  return 1.0;
}

}  // namespace xia::optimizer
