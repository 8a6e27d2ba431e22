#include "advisor/benefit.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace xia::advisor {

size_t BenefitCache::KeyHash::operator()(const std::vector<int>& key) const {
  uint64_t h = 1469598103934665603ull;
  for (int id : key) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(id));
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

bool BenefitCache::Peek(const std::vector<int>& key, double* value) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *value = it->second;
  return true;
}

void BenefitCache::CountHits(size_t n) {
  hits_ += n;
  XIA_OBS_COUNT("xia.advisor.benefit.cache_hits", n);
}

void BenefitCache::CountMiss() {
  ++misses_;
  XIA_OBS_COUNT("xia.advisor.benefit.cache_misses", 1);
}

BenefitEvaluator::BenefitEvaluator(const engine::Workload* workload,
                                   const CandidateSet* set,
                                   storage::Catalog* catalog,
                                   const storage::StatisticsCatalog* statistics,
                                   const storage::DocumentStore* store,
                                   Options options)
    : workload_(workload),
      set_(set),
      catalog_(catalog),
      optimizer_(store, catalog, statistics),
      options_(options),
      cache_(set->size()) {
  const size_t n = set_->size();
  size_t statement_count = 0;
  for (const Candidate& c : set_->candidates) {
    for (size_t s : c.affected) {
      statement_count = std::max(statement_count, s + 1);
    }
  }
  affected_words_ = (statement_count + 63) / 64;
  affected_bits_.assign(n * affected_words_, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t* bits = affected_bits_.data() + i * affected_words_;
    for (size_t s : (*set_)[i].affected) {
      bits[s / 64] |= uint64_t{1} << (s % 64);
    }
  }
  // The overlap matrix, through the transpose of the affected sets: the
  // candidates affecting a statement, then per candidate the OR of those
  // rows over its own statements.
  candidate_words_ = (n + 63) / 64;
  std::vector<uint64_t> by_statement(statement_count * candidate_words_, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t s : (*set_)[i].affected) {
      by_statement[s * candidate_words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  overlap_bits_.assign(n * candidate_words_, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t* row = overlap_bits_.data() + i * candidate_words_;
    for (size_t s : (*set_)[i].affected) {
      const uint64_t* affecting = by_statement.data() + s * candidate_words_;
      for (size_t w = 0; w < candidate_words_; ++w) row[w] |= affecting[w];
    }
  }
}

Status BenefitEvaluator::Initialize() {
  const size_t n = workload_->size();
  prepared_.assign(n, optimizer::PreparedStatement());
  base_costs_.assign(n, 0.0);
  base_workload_cost_ = 0;
  for (size_t s = 0; s < n; ++s) {
    XIA_ASSIGN_OR_RETURN(prepared_[s], optimizer_.Prepare((*workload_)[s]));
    XIA_ASSIGN_OR_RETURN(const optimizer::Plan plan,
                         optimizer_.OptimizeWithoutIndexes(prepared_[s]));
    base_costs_[s] = plan.est_cost;
  }
  // Summed after every statement is costed, in statement order: the
  // floating-point total depends on that order.
  for (size_t s = 0; s < n; ++s) {
    base_workload_cost_ += (*workload_)[s].frequency * base_costs_[s];
  }

  maintenance_.clear();
  if (options_.charge_maintenance) {
    for (size_t s = 0; s < n; ++s) {
      const engine::Statement& stmt = (*workload_)[s];
      if (stmt.is_query()) continue;
      for (const Candidate& c : set_->candidates) {
        maintenance_.push_back(
            c.collection != stmt.collection()
                ? 0.0
                : stmt.frequency * optimizer_.MaintenanceCost(
                                       prepared_[s], c.pattern, c.stats));
      }
    }
  }
  initialized_ = true;
  return Status::OK();
}

void BenefitEvaluator::DecomposeInto(ProbeScratch* scratch) const {
  const std::vector<int>& config = scratch->config;
  const size_t n = config.size();
  scratch->members.assign(config.begin(), config.end());
  if (!options_.use_subconfigurations || n == 1) {
    scratch->group_end.assign(1, static_cast<uint32_t>(n));
    scratch->group_root.assign(1, config[0]);
    return;
  }
  // Union-find over configuration positions; union when affected sets
  // overlap. The union direction fixes each group's root, and the roots'
  // order is the order the group benefits are summed in: changing either
  // changes the floating-point total. Pairs (i, j) are visited i-major,
  // j ascending, as a plain pair loop would; a pair whose affected sets
  // are disjoint does nothing there, so only the overlapping ones are
  // visited, read off the overlap row of config[i] masked by the members.
  std::vector<uint32_t>& parent = scratch->parent;
  parent.resize(n);
  if (scratch->member_bits.size() != candidate_words_) {
    scratch->member_bits.assign(candidate_words_, 0);
    scratch->position_of.assign(set_->size(), 0);
  }
  uint64_t* member_bits = scratch->member_bits.data();
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<size_t>(config[i]);
    parent[i] = static_cast<uint32_t>(i);
    member_bits[id / 64] |= uint64_t{1} << (id % 64);
    scratch->position_of[id] = static_cast<uint32_t>(i);
  }
  auto find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const size_t last_word = static_cast<size_t>(config[n - 1]) / 64;
  bool merged = false;
  for (size_t i = 0; i + 1 < n; ++i) {
    const auto id = static_cast<size_t>(config[i]);
    const uint64_t* row = OverlapRow(config[i]);
    uint32_t root_i = find(static_cast<uint32_t>(i));
    // Members after position i are the member ids above config[i].
    const size_t first_word = (id + 1) / 64;
    for (size_t w = first_word; w <= last_word; ++w) {
      uint64_t bits = row[w] & member_bits[w];
      if (w == first_word) bits &= ~uint64_t{0} << ((id + 1) % 64);
      for (; bits != 0; bits &= bits - 1) {
        const size_t other =
            w * 64 + static_cast<size_t>(std::countr_zero(bits));
        const uint32_t root_j = find(scratch->position_of[other]);
        if (root_i != root_j) {
          parent[root_i] = root_j;
          root_i = root_j;
          merged = true;
        }
      }
    }
  }
  for (int id : config) {
    member_bits[static_cast<size_t>(id) / 64] = 0;
  }
  std::vector<uint32_t>& group_end = scratch->group_end;
  std::vector<int>& group_root = scratch->group_root;
  if (!merged) {  // n singleton groups, in config order
    group_end.resize(n);
    std::iota(group_end.begin(), group_end.end(), uint32_t{1});
    group_root.assign(config.begin(), config.end());
    return;
  }
  // Number the groups by ascending root, then deal the members out in
  // config order (ascending, so each group comes out sorted): group_end
  // holds each group's start and advances to its end as it fills.
  std::vector<uint32_t>& group_of = scratch->group_of;
  group_of.resize(n);
  uint32_t groups = 0;
  group_root.clear();
  for (size_t i = 0; i < n; ++i) {
    parent[i] = find(static_cast<uint32_t>(i));
    if (parent[i] == i) {
      group_of[i] = groups++;
      group_root.push_back(config[i]);
    }
  }
  group_end.assign(groups, 0);
  for (size_t i = 0; i < n; ++i) ++group_end[group_of[parent[i]]];
  uint32_t begin = 0;
  for (uint32_t& end : group_end) {
    const uint32_t size = end;
    end = begin;
    begin += size;
  }
  for (size_t i = 0; i < n; ++i) {
    scratch->members[group_end[group_of[parent[i]]]++] = config[i];
  }
}

std::vector<std::vector<int>> BenefitEvaluator::Decompose(
    const std::vector<int>& config) const {
  ProbeScratch scratch;
  scratch.config = config;
  DecomposeInto(&scratch);
  std::vector<std::vector<int>> out;
  for (size_t k = 0; k < scratch.group_count(); ++k) {
    const std::span<const int> group = scratch.group(k);
    out.emplace_back(group.begin(), group.end());
  }
  return out;
}

Result<double> BenefitEvaluator::ComputeSubConfigurationBenefit(
    std::span<const int> sub, const fault::Deadline& deadline,
    const fault::CancelToken* cancel) {
  // Create the sub-configuration's indexes virtually.
  catalog_->DropAllVirtualIndexes();
  for (int id : sub) {
    const Candidate& c = (*set_)[static_cast<size_t>(id)];
    auto created = catalog_->CreateVirtualIndex(
        StringPrintf("whatif_cand_%d", id), c.collection, c.pattern,
        &c.stats);
    if (!created.ok()) return created.status();
  }

  // Statements worth re-optimizing: union of affected sets (or everything
  // when the pruning is disabled), visited in ascending statement order,
  // which fixes the floating-point accumulation order.
  double benefit = 0;
  auto add_statement = [&](size_t s) -> Status {
    XIA_RETURN_IF_ERROR(fault::CheckInterrupt(deadline, cancel));
    auto plan = optimizer_.Optimize(prepared_[s]);
    if (!plan.ok()) return plan.status();
    benefit +=
        (*workload_)[s].frequency * (base_costs_[s] - plan->est_cost);
    return Status::OK();
  };
  if (options_.use_affected_sets) {
    std::vector<uint64_t> statements(affected_words_, 0);
    for (int id : sub) {
      const uint64_t* bits = AffectedBits(id);
      for (size_t w = 0; w < affected_words_; ++w) statements[w] |= bits[w];
    }
    for (size_t w = 0; w < affected_words_; ++w) {
      for (uint64_t word = statements[w]; word != 0; word &= word - 1) {
        const size_t s = w * 64 + static_cast<size_t>(std::countr_zero(word));
        XIA_RETURN_IF_ERROR(add_statement(s));
      }
    }
  } else {
    for (size_t s = 0; s < workload_->size(); ++s) {
      XIA_RETURN_IF_ERROR(add_statement(s));
    }
  }
  catalog_->DropAllVirtualIndexes();
  return benefit;
}

Result<double> BenefitEvaluator::SubConfigurationQueryBenefit(
    std::span<const int> sub, std::vector<int>* key,
    const fault::Deadline& deadline, const fault::CancelToken* cancel) {
  auto compute = [&] {
    return ComputeSubConfigurationBenefit(sub, deadline, cancel);
  };
  if (sub.size() == 1) return cache_.GetOrComputeSingle(sub[0], compute);
  key->assign(sub.begin(), sub.end());
  return cache_.GetOrCompute(*key, compute);
}

double BenefitEvaluator::MaintenanceCharge(std::span<const int> a,
                                           std::span<const int> b) const {
  // Statement outer, configuration inner: the order the per-probe
  // MaintenanceCost sum always used, members merged from the two lists in
  // ascending id order. The zero entries of other collections' candidates
  // leave the (never negative) sum unchanged.
  double charge = 0;
  const size_t row_size = set_->size();
  for (size_t row = 0; row < maintenance_.size(); row += row_size) {
    const double* costs = maintenance_.data() + row;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() || j < b.size()) {
      const int id = j == b.size() || (i < a.size() && a[i] < b[j])
                         ? a[i++]
                         : b[j++];
      charge += costs[static_cast<size_t>(id)];
    }
  }
  return charge;
}

Result<double> BenefitEvaluator::ConfigurationBenefit(
    const std::vector<int>& config) {
  return ConfigurationBenefit(config, fault::Deadline::Infinite(), nullptr);
}

Result<double> BenefitEvaluator::ConfigurationBenefit(
    const std::vector<int>& config, const fault::Deadline& deadline,
    const fault::CancelToken* cancel) {
  XIA_FAULT_INJECT(fault::points::kAdvisorBenefit);
  if (!initialized_) {
    return Status::FailedPrecondition("BenefitEvaluator not initialized");
  }
  // Canonicalize: callers pass ids in whatever order their search step
  // produced, but a configuration is a set — sorting and deduplicating
  // here keeps permuted configs on one cache key and stops duplicated ids
  // from double-charging maintenance or colliding on what-if index names.
  ProbeScratch& scratch = scratch_;
  std::vector<int>& canonical = scratch.config;
  canonical.assign(config.begin(), config.end());
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  if (canonical.empty()) return 0.0;
  return CanonicalBenefit(&scratch, deadline, cancel);
}

Result<double> BenefitEvaluator::CanonicalBenefit(
    ProbeScratch* scratch, const fault::Deadline& deadline,
    const fault::CancelToken* cancel) {
  DecomposeInto(scratch);
  XIA_ASSIGN_OR_RETURN(
      const double benefit,
      SumGroups(
          scratch->group_count(),
          [&](size_t k) { return scratch->group(k); },
          [&](size_t k, double* value) {
            const std::span<const int> group = scratch->group(k);
            return group.size() == 1 && cache_.PeekSingle(group[0], value);
          },
          scratch, deadline, cancel));
  return benefit - MaintenanceCharge(scratch->config);
}

template <typename GroupOf, typename KnownValue>
Result<double> BenefitEvaluator::SumGroups(size_t groups, GroupOf&& group,
                                           KnownValue&& known,
                                           ProbeScratch* scratch,
                                           const fault::Deadline& deadline,
                                           const fault::CancelToken* cancel) {
  // Known groups (most of them) count as hits, tallied once.
  size_t hits = 0;
  double benefit = 0;
  for (size_t k = 0; k < groups; ++k) {
    double value = 0;
    if (known(k, &value)) {
      ++hits;
    } else {
      Result<double> computed =
          SubConfigurationQueryBenefit(group(k), &scratch->key, deadline,
                                       cancel);
      if (!computed.ok()) {
        cache_.CountHits(hits);
        return computed.status();
      }
      value = *computed;
    }
    benefit += value;
  }
  cache_.CountHits(hits);
  return benefit;
}

BenefitEvaluator::Base BenefitEvaluator::DecomposeBase(
    const std::vector<int>& config) {
  Base base;
  ProbeScratch scratch;
  scratch.config.assign(config.begin(), config.end());
  std::sort(scratch.config.begin(), scratch.config.end());
  scratch.config.erase(
      std::unique(scratch.config.begin(), scratch.config.end()),
      scratch.config.end());
  base.ids_ = scratch.config;
  base.member_bits_.assign(candidate_words_, 0);
  base.group_of_.assign(set_->size(), 0);
  if (base.ids_.empty()) return base;
  DecomposeInto(&scratch);
  for (size_t k = 0; k < scratch.group_count(); ++k) {
    Base::Group group;
    group.root = scratch.group_root[k];
    group.end = scratch.group_end[k];
    const std::span<const int> members = scratch.group(k);
    for (int id : members) {
      const auto i = static_cast<size_t>(id);
      base.member_bits_[i / 64] |= uint64_t{1} << (i % 64);
      base.group_of_[i] = static_cast<uint32_t>(k);
    }
    if (members.size() == 1) {
      group.ready = cache_.PeekSingle(members[0], &group.value);
    } else {
      scratch.key.assign(members.begin(), members.end());
      group.ready = cache_.Peek(scratch.key, &group.value);
    }
    base.groups_.push_back(group);
  }
  base.members_ = std::move(scratch.members);
  return base;
}

Result<double> BenefitEvaluator::ExtensionBenefit(
    const Base& base, std::span<const int> extension,
    const fault::Deadline& deadline, const fault::CancelToken* cancel) {
  XIA_FAULT_INJECT(fault::points::kAdvisorBenefit);
  if (!initialized_) {
    return Status::FailedPrecondition("BenefitEvaluator not initialized");
  }
  ProbeScratch& scratch = scratch_;
  // The extension's ids not already in the base, ascending.
  std::vector<int>& added = scratch.added;
  added.clear();
  for (int id : extension) {
    const auto i = static_cast<size_t>(id);
    if ((base.member_bits_[i / 64] >> (i % 64) & 1) == 0) added.push_back(id);
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  const std::vector<int>& ids = base.ids_;

  if (!options_.use_subconfigurations) {
    // One group, the whole configuration: nothing to reuse.
    std::vector<int>& canonical = scratch.config;
    canonical.resize(ids.size() + added.size());
    std::merge(ids.begin(), ids.end(), added.begin(), added.end(),
               canonical.begin());
    if (canonical.empty()) return 0.0;
    return CanonicalBenefit(&scratch, deadline, cancel);
  }

  // Base groups an added id overlaps, and with them the ids to decompose
  // afresh: their members plus the added ids.
  const std::vector<Base::Group>& base_groups = base.groups_;
  std::vector<uint8_t>& touched = scratch.touched;
  if (touched.size() < base_groups.size()) touched.resize(base_groups.size());
  std::vector<int>& fresh = scratch.config;
  fresh.assign(added.begin(), added.end());
  for (int id : added) {
    const uint64_t* row = OverlapRow(id);
    for (size_t w = 0; w < candidate_words_; ++w) {
      for (uint64_t bits = row[w] & base.member_bits_[w]; bits != 0;
           bits &= bits - 1) {
        const size_t other =
            w * 64 + static_cast<size_t>(std::countr_zero(bits));
        const uint32_t k = base.group_of_[other];
        if (touched[k] != 0) continue;
        touched[k] = 1;
        const std::span<const int> members = base.group(k);
        fresh.insert(fresh.end(), members.begin(), members.end());
      }
    }
  }
  std::sort(fresh.begin(), fresh.end());
  size_t fresh_groups = 0;
  if (!fresh.empty()) {
    DecomposeInto(&scratch);
    fresh_groups = scratch.group_count();
  }

  // Every group of base ∪ extension in ascending root order: the untouched
  // base groups (entry k >= 0) merged with the fresh ones (entry ~k).
  std::vector<int>& order = scratch.order;
  order.clear();
  size_t f = 0;
  for (size_t k = 0; k < base_groups.size(); ++k) {
    if (touched[k] != 0) {
      touched[k] = 0;
      continue;
    }
    while (f < fresh_groups && scratch.group_root[f] < base_groups[k].root) {
      order.push_back(~static_cast<int>(f++));
    }
    order.push_back(static_cast<int>(k));
  }
  while (f < fresh_groups) order.push_back(~static_cast<int>(f++));
  if (order.empty()) return 0.0;

  auto group = [&](size_t e) {
    const int entry = order[e];
    return entry < 0 ? scratch.group(static_cast<size_t>(~entry))
                     : base.group(static_cast<size_t>(entry));
  };
  XIA_ASSIGN_OR_RETURN(
      const double benefit,
      SumGroups(
          order.size(), group,
          [&](size_t e, double* value) {
            const int entry = order[e];
            if (entry >= 0) {
              const Base::Group& g = base_groups[static_cast<size_t>(entry)];
              *value = g.value;
              return g.ready;
            }
            const std::span<const int> members = group(e);
            return members.size() == 1 &&
                   cache_.PeekSingle(members[0], value);
          },
          &scratch, deadline, cancel));
  return benefit - MaintenanceCharge(ids, added);
}

Result<double> BenefitEvaluator::ConfigurationCost(
    const std::vector<int>& config) {
  XIA_ASSIGN_OR_RETURN(const double benefit, ConfigurationBenefit(config));
  return base_workload_cost_ - benefit;
}

Result<double> BenefitEvaluator::ConfigurationSpeedup(
    const std::vector<int>& config) {
  XIA_ASSIGN_OR_RETURN(const double cost, ConfigurationCost(config));
  if (cost <= 0) return 1e12;  // degenerate: configuration removed all cost
  return base_workload_cost_ / cost;
}

}  // namespace xia::advisor
