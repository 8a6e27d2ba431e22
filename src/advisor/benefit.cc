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

void BenefitCache::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  XIA_OBS_COUNT("xia.advisor.benefit.cache_hits", 1);
}

void BenefitCache::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  XIA_OBS_COUNT("xia.advisor.benefit.cache_misses", 1);
}

// RAII lease of a scratch context from the evaluator's freelist.
class BenefitEvaluator::ContextLease {
 public:
  explicit ContextLease(BenefitEvaluator* evaluator)
      : evaluator_(evaluator), context_(evaluator->AcquireContext()) {}
  ~ContextLease() { evaluator_->ReleaseContext(context_); }
  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;

  WorkerContext* get() const { return context_; }

 private:
  BenefitEvaluator* evaluator_;
  WorkerContext* context_;
};

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
      options_(options) {
  size_t statement_count = 0;
  for (const Candidate& c : set_->candidates) {
    for (size_t s : c.affected) {
      statement_count = std::max(statement_count, s + 1);
    }
  }
  affected_words_ = (statement_count + 63) / 64;
  affected_bits_.assign(set_->size() * affected_words_, 0);
  for (size_t i = 0; i < set_->size(); ++i) {
    uint64_t* bits = affected_bits_.data() + i * affected_words_;
    for (size_t s : (*set_)[i].affected) {
      bits[s / 64] |= uint64_t{1} << (s % 64);
    }
  }
  if (parallel()) {
    // One context per pool worker plus one for the calling thread, so a
    // lease never blocks while a batch is in flight.
    const size_t count = options_.pool->thread_count() + 1;
    contexts_.reserve(count);
    free_contexts_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      contexts_.push_back(std::make_unique<WorkerContext>(
          catalog_->store(), catalog_->statistics(),
          catalog_->cost_constants()));
      free_contexts_.push_back(contexts_.back().get());
    }
  }
}

BenefitEvaluator::WorkerContext* BenefitEvaluator::AcquireContext() {
  std::unique_lock<std::mutex> lock(contexts_mu_);
  contexts_cv_.wait(lock, [&] { return !free_contexts_.empty(); });
  WorkerContext* context = free_contexts_.back();
  free_contexts_.pop_back();
  return context;
}

void BenefitEvaluator::ReleaseContext(WorkerContext* context) {
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    free_contexts_.push_back(context);
  }
  contexts_cv_.notify_one();
}

uint64_t BenefitEvaluator::optimizer_calls() const {
  uint64_t total = optimizer_.optimize_calls();
  for (const auto& context : contexts_) {
    total += context->optimizer.optimize_calls();
  }
  return total;
}

Status BenefitEvaluator::Initialize() {
  const size_t n = workload_->size();
  prepared_.assign(n, optimizer::PreparedStatement());
  base_costs_.assign(n, 0.0);
  base_workload_cost_ = 0;
  auto prepare = [&](const optimizer::Optimizer& optimizer,
                     size_t s) -> Status {
    XIA_ASSIGN_OR_RETURN(prepared_[s], optimizer.Prepare((*workload_)[s]));
    XIA_ASSIGN_OR_RETURN(const optimizer::Plan plan,
                         optimizer.OptimizeWithoutIndexes(prepared_[s]));
    base_costs_[s] = plan.est_cost;
    return Status::OK();
  };
  if (parallel() && n > 1) {
    XIA_RETURN_IF_ERROR(
        options_.pool->ParallelFor(n, [&](size_t s) -> Status {
          ContextLease lease(this);
          return prepare(lease.get()->optimizer, s);
        }));
  } else {
    for (size_t s = 0; s < n; ++s) {
      XIA_RETURN_IF_ERROR(prepare(optimizer_, s));
    }
  }
  // Reduced serially in statement order, so the total is bit-identical no
  // matter how the probes were scheduled.
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

std::vector<std::vector<int>> BenefitEvaluator::Decompose(
    const std::vector<int>& config) const {
  const size_t n = config.size();
  if (!options_.use_subconfigurations || n == 1) return {config};
  // Union-find over configuration members; union when affected sets
  // overlap. The union direction fixes each group's root, and the roots'
  // order is the order the group benefits are summed in: changing either
  // changes the floating-point total.
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto overlap = [&](int a, int b) {
    const uint64_t* sa = AffectedBits(a);
    const uint64_t* sb = AffectedBits(b);
    for (size_t w = 0; w < affected_words_; ++w) {
      if (sa[w] & sb[w]) return true;
    }
    return false;
  };
  for (size_t i = 0; i < n; ++i) {
    size_t root_i = find(i);
    for (size_t j = i + 1; j < n; ++j) {
      // A pair already in one group would union a root with itself: skip
      // its overlap test.
      const size_t root_j = find(j);
      if (root_i != root_j && overlap(config[i], config[j])) {
        parent[root_i] = root_j;
        root_i = root_j;
      }
    }
  }
  // Number the groups by ascending root, then deal the members out in
  // config order (ascending, so each group comes out sorted).
  std::vector<size_t> group_of(n);
  size_t groups = 0;
  for (size_t i = 0; i < n; ++i) {
    if (find(i) == i) group_of[i] = groups++;
  }
  std::vector<std::vector<int>> out(groups);
  for (size_t i = 0; i < n; ++i) {
    out[group_of[find(i)]].push_back(config[i]);
  }
  return out;
}

Result<double> BenefitEvaluator::ComputeSubConfigurationBenefit(
    const std::vector<int>& sub, storage::Catalog* catalog,
    const optimizer::Optimizer& optimizer, const fault::Deadline& deadline,
    const fault::CancelToken* cancel) {
  // Create the sub-configuration's indexes virtually.
  catalog->DropAllVirtualIndexes();
  for (int id : sub) {
    const Candidate& c = (*set_)[static_cast<size_t>(id)];
    auto created = catalog->CreateVirtualIndex(
        StringPrintf("whatif_cand_%d", id), c.collection, c.pattern,
        &c.stats);
    if (!created.ok()) return created.status();
  }

  // Statements worth re-optimizing: union of affected sets (or everything
  // when the pruning is disabled), visited in ascending statement order so
  // the accumulation order — and hence the floating-point result — is
  // thread-independent.
  double benefit = 0;
  auto add_statement = [&](size_t s) -> Status {
    XIA_RETURN_IF_ERROR(fault::CheckInterrupt(deadline, cancel));
    auto plan = optimizer.Optimize(prepared_[s]);
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
  catalog->DropAllVirtualIndexes();
  return benefit;
}

Result<double> BenefitEvaluator::SubConfigurationQueryBenefit(
    const std::vector<int>& sub, const fault::Deadline& deadline,
    const fault::CancelToken* cancel) {
  return cache_.GetOrCompute(sub, [&]() -> Result<double> {
    if (parallel()) {
      ContextLease lease(this);
      return ComputeSubConfigurationBenefit(sub, &lease.get()->catalog,
                                            lease.get()->optimizer, deadline,
                                            cancel);
    }
    return ComputeSubConfigurationBenefit(sub, catalog_, optimizer_, deadline,
                                          cancel);
  });
}

double BenefitEvaluator::MaintenanceCharge(
    const std::vector<int>& config) const {
  // Statement outer, configuration inner: the order the per-probe
  // MaintenanceCost sum always used. The zero entries of other
  // collections' candidates leave the (never negative) sum unchanged.
  double charge = 0;
  const size_t row_size = set_->size();
  for (size_t row = 0; row < maintenance_.size(); row += row_size) {
    for (int id : config) {
      charge += maintenance_[row + static_cast<size_t>(id)];
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
  std::vector<int> canonical = config;
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  if (canonical.empty()) return 0.0;

  const std::vector<std::vector<int>> subs = Decompose(canonical);
  double benefit = 0;
  if (parallel() && subs.size() > 1) {
    // Disjoint groups (§VI-C) evaluate independently: farm them out,
    // then reduce serially in decomposition order for bit-identical sums.
    std::vector<double> sub_benefits(subs.size(), 0.0);
    XIA_RETURN_IF_ERROR(
        options_.pool->ParallelFor(subs.size(), [&](size_t i) -> Status {
          XIA_ASSIGN_OR_RETURN(
              sub_benefits[i],
              SubConfigurationQueryBenefit(subs[i], deadline, cancel));
          return Status::OK();
        }));
    for (double sub_benefit : sub_benefits) benefit += sub_benefit;
  } else {
    for (const std::vector<int>& sub : subs) {
      XIA_ASSIGN_OR_RETURN(
          const double sub_benefit,
          SubConfigurationQueryBenefit(sub, deadline, cancel));
      benefit += sub_benefit;
    }
  }
  return benefit - MaintenanceCharge(canonical);
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
