// Configuration benefit evaluation with the §VI-C optimizer-call
// reductions.
//
// Benefit(x1..xn; W) = sum_s freq_s * (s_old - s_new)
//                    - sum_s sum_i freq_s * mc(x_i, s)            (§III)
//
// s_old is each statement's cost with no indexes; s_new its cost with the
// configuration's indexes created virtually. Two optimizations cut the
// number of Evaluate-mode optimizer calls:
//
//  1. affected-set pruning — only statements in the union of the
//     configuration's affected sets can change cost; everything else keeps
//     s_old and contributes zero benefit;
//  2. sub-configuration decomposition + cache — the configuration is split
//     into groups of indexes with overlapping affected sets; each group is
//     costed independently and memoized, so search steps that revisit a
//     group (greedy and top-down do constantly) pay nothing.
//
// Both can be disabled to reproduce the naive evaluator for the ablation
// benchmark.
//
// Each probe only does configuration-dependent work. Initialize()
// prepares every workload statement once (optimizer::PreparedStatement)
// and costs the maintenance of every candidate under every write
// statement once; a probe creates its virtual indexes from the
// candidates' own statistics and plans the prepared statements. A
// what-if call is still one optimizer call, so the §VI-C counts are
// unchanged.
//
// One thread (DESIGN §12). An evaluator belongs to one Recommend call and
// runs on its caller's thread. It mutates only its own cache and probe
// scratch and the scratch what-if catalog it was given.
//
// Probe path (DESIGN §17). A cache-hit probe is bookkeeping only, so it
// is kept free of allocation: the constructor builds a candidate-by-
// candidate overlap bitset matrix, Decompose runs its union-find against
// it into flat buffers the evaluator owns, and a one-member group — most
// of them — reads its benefit from a per-candidate slot instead of the
// hashed cache.
//
// Incremental probes (DESIGN §17). A search step that probes many
// extensions B ∪ X of one configuration B decomposes B once
// (DecomposeBase) and evaluates each extension with ExtensionBenefit: only
// the groups of B that X overlaps are re-decomposed, together with X. The
// result is bit-identical to ConfigurationBenefit(B ∪ X): union-find
// visits each group's member pairs in the same relative order whether or
// not other groups are present, so untouched groups keep their roots, and
// the group benefits are summed in the same ascending-root order.

#ifndef XIA_ADVISOR_BENEFIT_H_
#define XIA_ADVISOR_BENEFIT_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/candidates.h"
#include "engine/query.h"
#include "fault/deadline.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace xia::advisor {

/// Memo cache for sub-configuration benefits. Every lookup counts one hit
/// or one miss, and a miss is one computation, so the miss count is the
/// number of what-if evaluations. A failed computation is never cached:
/// the next lookup of its key computes it again.
///
/// One-member configurations, most of the probes, skip the hash map: each
/// candidate id has a slot, counted like a map entry.
class BenefitCache {
 public:
  /// `single_count` is the number of candidate ids with a slot.
  explicit BenefitCache(size_t single_count = 0) : singles_(single_count) {}

  /// The value of `key` if it is cached, counting nothing (see PeekSingle).
  bool Peek(const std::vector<int>& key, double* value) const;

  /// Returns the cached value for `key`, or runs `compute` (a callable
  /// returning Result<double>) and caches its result if it succeeded.
  /// Counts one hit or one miss per call.
  template <typename Compute>
  Result<double> GetOrCompute(const std::vector<int>& key, Compute&& compute);

  /// GetOrCompute for the one-member key {id}, through id's slot.
  template <typename Compute>
  Result<double> GetOrComputeSingle(int id, Compute&& compute);

  /// The value of {id}'s slot if it is cached, counting nothing: a probe
  /// tallies these hits and adds them with one CountHits call.
  bool PeekSingle(int id, double* value) const {
    const Slot& slot = singles_[static_cast<size_t>(id)];
    if (!slot.ready) return false;
    *value = slot.value;
    return true;
  }
  void CountHits(size_t n);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  /// FNV-1a over the ids. Keys are canonical (sorted) by the time they
  /// reach the cache, so equal configurations hash alike.
  struct KeyHash {
    size_t operator()(const std::vector<int>& key) const;
  };
  struct Slot {
    bool ready = false;
    double value = 0;
  };

  void CountMiss();

  std::unordered_map<std::vector<int>, double, KeyHash> entries_;
  std::vector<Slot> singles_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

template <typename Compute>
Result<double> BenefitCache::GetOrCompute(const std::vector<int>& key,
                                          Compute&& compute) {
  if (auto it = entries_.find(key); it != entries_.end()) {
    CountHits(1);
    return it->second;
  }
  CountMiss();
  Result<double> result = compute();
  if (result.ok()) entries_.emplace(key, *result);
  return result;
}

template <typename Compute>
Result<double> BenefitCache::GetOrComputeSingle(int id, Compute&& compute) {
  Slot& slot = singles_[static_cast<size_t>(id)];
  if (slot.ready) {
    CountHits(1);
    return slot.value;
  }
  CountMiss();
  Result<double> result = compute();
  if (result.ok()) {
    slot.value = *result;
    slot.ready = true;
  }
  return result;
}

/// Evaluates configuration benefits against a scratch what-if catalog.
class BenefitEvaluator {
 public:
  /// Behavioural switches (ablations).
  struct Options {
    /// §VI-C sub-configuration decomposition and caching.
    bool use_subconfigurations = true;
    /// §VI-C affected-set pruning.
    bool use_affected_sets = true;
    /// Charge index maintenance costs for update statements (§III).
    bool charge_maintenance = true;
  };

  /// `catalog` must be a scratch catalog reserved for the evaluator: its
  /// virtual indexes are created and dropped freely. `set` provides the
  /// candidate definitions configurations refer to by id.
  BenefitEvaluator(const engine::Workload* workload, const CandidateSet* set,
                   storage::Catalog* catalog,
                   const storage::StatisticsCatalog* statistics,
                   const storage::DocumentStore* store, Options options);

  /// Prepares every statement, computes its base (no-index) cost, and
  /// costs candidate maintenance. Must be called once before any benefit
  /// query. Candidates must carry their statistics (PopulateStatistics).
  Status Initialize();

  /// Total workload cost with no indexes: sum_s freq_s * s_old.
  double base_workload_cost() const { return base_workload_cost_; }

  /// Benefit of a configuration of candidate ids (§III formula). The ids
  /// are canonicalized (sorted, deduplicated) before the cache lookup, so
  /// permuted or duplicated ids cannot cause spurious misses or duplicate
  /// what-if calls.
  Result<double> ConfigurationBenefit(const std::vector<int>& config);

  /// Deadline/cancel-aware variant: the interrupt is polled per statement
  /// *inside* each sub-configuration evaluation, so an expiry stops an
  /// in-flight evaluation promptly. Returns kDeadlineExceeded/kCancelled
  /// on a trip; the interrupted sub-configuration is not cached (a later
  /// deadline-free call recomputes it cleanly).
  Result<double> ConfigurationBenefit(const std::vector<int>& config,
                                      const fault::Deadline& deadline,
                                      const fault::CancelToken* cancel);

  /// Workload cost under the configuration
  /// (= base_workload_cost - ConfigurationBenefit).
  Result<double> ConfigurationCost(const std::vector<int>& config);

  /// Estimated speedup of the configuration on this workload.
  Result<double> ConfigurationSpeedup(const std::vector<int>& config);

  /// Evaluate-mode optimizer calls issued so far.
  uint64_t optimizer_calls() const { return optimizer_.optimize_calls(); }
  const obs::Counter& optimizer_call_counter() const {
    return optimizer_.call_counter();
  }

  /// Maintenance charge of a canonical configuration:
  /// sum_s sum_i freq_s * mc(x_i, s), statements outer, members inner.
  /// Zero without charge_maintenance. Requires Initialize().
  double MaintenanceCharge(const std::vector<int>& config) const {
    return MaintenanceCharge(config, {});
  }
  /// The same for the union of two disjoint ascending id lists, members
  /// taken in ascending id order.
  double MaintenanceCharge(std::span<const int> a,
                           std::span<const int> b) const;

  /// Cache statistics.
  size_t cache_hits() const { return cache_.hits(); }
  size_t cache_misses() const { return cache_.misses(); }

  /// Splits a canonical (sorted, deduplicated) configuration into
  /// sub-configurations whose affected sets overlap (union-find, §VI-C).
  /// Groups come out ordered by their union-find root — the order
  /// ConfigurationBenefit sums them in — with members ascending. Without
  /// use_subconfigurations the whole configuration is one group.
  std::vector<std::vector<int>> Decompose(const std::vector<int>& config) const;

  /// A configuration decomposed once, whose extensions ExtensionBenefit
  /// evaluates. Read-only once built.
  class Base {
   public:
    /// The canonical configuration.
    const std::vector<int>& ids() const { return ids_; }

   private:
    friend class BenefitEvaluator;
    std::span<const int> group(size_t k) const {
      const uint32_t begin = k == 0 ? 0 : groups_[k - 1].end;
      return {members_.data() + begin, groups_[k].end - begin};
    }

    struct Group {
      int root = 0;          ///< union-find root: the summation order
      uint32_t end = 0;      ///< members_[previous end, end)
      bool ready = false;    ///< `value` was cached when the base was built
      double value = 0;
    };
    std::vector<int> ids_;
    std::vector<uint64_t> member_bits_;  // bitset over candidate ids
    std::vector<uint32_t> group_of_;     // by candidate id; members only
    std::vector<Group> groups_;          // ascending root
    std::vector<int> members_;           // group after group, ascending
  };

  /// Decomposes `config` (any order, duplicates allowed) for
  /// ExtensionBenefit, reading the benefits its groups already have in the
  /// cache. Issues no optimizer call and counts no cache hit or miss.
  Base DecomposeBase(const std::vector<int>& config);

  /// ConfigurationBenefit(base.ids() ∪ extension), bit for bit, with the
  /// same fault point, interrupt polling, optimizer calls and cache
  /// hit/miss counts — but only the groups of the base that `extension`
  /// overlaps are decomposed and looked up again.
  Result<double> ExtensionBenefit(const Base& base,
                                  std::span<const int> extension,
                                  const fault::Deadline& deadline,
                                  const fault::CancelToken* cancel);

 private:
  /// One probe's working memory: its canonical configuration and that
  /// configuration's decomposition, laid out flat. The evaluator reuses
  /// one, so a probe allocates only while the buffers grow.
  struct ProbeScratch {
    /// The canonical configuration.
    std::vector<int> config;
    /// Union-find parents over positions in `config`.
    std::vector<uint32_t> parent;
    /// Group number of each root position.
    std::vector<uint32_t> group_of;
    /// Members of every group, group after group, each group ascending.
    std::vector<int> members;
    /// Group k's members are members[k == 0 ? 0 : group_end[k-1],
    /// group_end[k]).
    std::vector<uint32_t> group_end;
    /// Group k's union-find root (with use_subconfigurations).
    std::vector<int> group_root;
    /// Bitset over candidate ids of the configuration's members; all zero
    /// between calls.
    std::vector<uint64_t> member_bits;
    /// Position in `config` of each member id (other entries stale).
    std::vector<uint32_t> position_of;
    /// The cache key of a multi-member group.
    std::vector<int> key;
    /// ExtensionBenefit's added ids and touched-group marks (the marks all
    /// zero between calls).
    std::vector<int> added;
    std::vector<uint8_t> touched;
    /// ExtensionBenefit's groups in summation order: a base group (its
    /// index, >= 0) or a group of this decomposition (~k).
    std::vector<int> order;

    size_t group_count() const { return group_end.size(); }
    std::span<const int> group(size_t k) const {
      const size_t begin = k == 0 ? 0 : group_end[k - 1];
      return {members.data() + begin, group_end[k] - begin};
    }
  };

  /// Decomposes scratch->config (canonical, non-empty) into
  /// scratch->members / group_end / group_root; see Decompose.
  void DecomposeInto(ProbeScratch* scratch) const;

  /// ConfigurationBenefit of the canonical, non-empty scratch->config.
  Result<double> CanonicalBenefit(ProbeScratch* scratch,
                                  const fault::Deadline& deadline,
                                  const fault::CancelToken* cancel);

  /// Sums the benefits of `groups` groups in order. known(k, &value)
  /// reports group k's benefit when it is known without a lookup (a ready
  /// slot, or a base group's cached value), which counts as a cache hit;
  /// any other group(k) is looked up through the cache.
  template <typename GroupOf, typename KnownValue>
  Result<double> SumGroups(size_t groups, GroupOf&& group,
                           KnownValue&& value_of, ProbeScratch* scratch,
                           const fault::Deadline& deadline,
                           const fault::CancelToken* cancel);

  /// Query-side benefit of one sub-configuration (no maintenance),
  /// memoized through cache_: a one-member group through its slot, a
  /// larger one through the map, keyed by a copy made in `key`.
  Result<double> SubConfigurationQueryBenefit(std::span<const int> sub,
                                              std::vector<int>* key,
                                              const fault::Deadline& deadline,
                                              const fault::CancelToken* cancel);

  /// The actual what-if evaluation against the scratch catalog.
  Result<double> ComputeSubConfigurationBenefit(
      std::span<const int> sub, const fault::Deadline& deadline,
      const fault::CancelToken* cancel);

  const uint64_t* AffectedBits(int id) const {
    return affected_bits_.data() + static_cast<size_t>(id) * affected_words_;
  }
  const uint64_t* OverlapRow(int id) const {
    return overlap_bits_.data() + static_cast<size_t>(id) * candidate_words_;
  }

  const engine::Workload* workload_;
  const CandidateSet* set_;
  storage::Catalog* catalog_;
  optimizer::Optimizer optimizer_;
  Options options_;

  // Affected sets as bitsets over statement indices, affected_words_ words
  // per candidate id, built at construction: a sub-configuration's
  // statements are the OR of its members' rows.
  size_t affected_words_ = 0;
  std::vector<uint64_t> affected_bits_;
  // The overlap matrix: row x is a bitset over candidate ids, bit y set
  // when the affected sets of x and y intersect; candidate_words_ words
  // per row, built at construction.
  size_t candidate_words_ = 0;
  std::vector<uint64_t> overlap_bits_;

  // Per statement, indexed like the workload: the prepared statement every
  // probe plans (read-only after Initialize) and its unweighted no-index
  // cost.
  std::vector<optimizer::PreparedStatement> prepared_;
  std::vector<double> base_costs_;
  // freq_s * mc(x, s) per write statement s (in workload order) and
  // candidate id x, set_->size() entries per row; zero where x indexes
  // another collection. Empty without charge_maintenance.
  std::vector<double> maintenance_;
  double base_workload_cost_ = 0;
  bool initialized_ = false;

  BenefitCache cache_;
  ProbeScratch scratch_;
};

}  // namespace xia::advisor

#endif  // XIA_ADVISOR_BENEFIT_H_
