#include "advisor/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>

#include "fault/fault.h"
#include "util/string_util.h"

namespace xia::advisor {

namespace {

constexpr double kEps = 1e-9;

// Deadline/cancel poll shared by every algorithm's evaluation loops.
bool Interrupted(const SearchOptions& options) {
  if (options.cancel != nullptr && options.cancel->cancelled()) return true;
  return options.deadline.expired();
}

bool IsInterrupt(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

// Evaluates a batch of `count` independent probes in order, probe i
// being benefit_of(i) (one evaluator call). A deadline/cancel trip —
// between probes or, via the evaluator's granular polling, inside one —
// sets *partial and leaves the remaining slots at zero (best-so-far);
// real errors propagate.
template <typename BenefitOf>
Result<std::vector<double>> BatchProbes(size_t count, BenefitOf&& benefit_of,
                                        const SearchOptions& options,
                                        bool* partial) {
  std::vector<double> values(count, 0.0);
  for (size_t i = 0; i < count; ++i) {
    if (Interrupted(options)) {
      *partial = true;
      break;
    }
    Result<double> benefit = benefit_of(i);
    if (!benefit.ok()) {
      if (IsInterrupt(benefit.status())) {
        *partial = true;
        break;
      }
      return benefit.status();
    }
    values[i] = *benefit;
  }
  return values;
}

// BatchProbes over whole configurations.
Result<std::vector<double>> BatchBenefits(
    const std::vector<std::vector<int>>& configs, BenefitEvaluator* evaluator,
    const SearchOptions& options, bool* partial) {
  return BatchProbes(
      configs.size(),
      [&](size_t i) {
        return evaluator->ConfigurationBenefit(configs[i], options.deadline,
                                               options.cancel);
      },
      options, partial);
}

double TotalSize(const CandidateSet& set, const std::vector<int>& config) {
  double total = 0;
  for (int id : config) {
    total += static_cast<double>(set[static_cast<size_t>(id)].size_bytes());
  }
  return total;
}

Result<SearchOutcome> Finalize(const CandidateSet& set,
                               std::vector<int> selected,
                               BenefitEvaluator* evaluator,
                               bool partial = false) {
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  SearchOutcome out;
  out.partial = partial;
  out.total_size_bytes = TotalSize(set, selected);
  // Deliberately evaluated even past a deadline: a partial outcome must
  // still report a true benefit for what it selected.
  XIA_ASSIGN_OR_RETURN(out.benefit, evaluator->ConfigurationBenefit(selected));
  for (int id : selected) {
    if (set[static_cast<size_t>(id)].is_general) {
      ++out.general_count;
    } else {
      ++out.specific_count;
    }
  }
  out.selected = std::move(selected);
  return out;
}

// Standalone benefit of every candidate (one evaluator probe each). On
// interrupt, the remaining
// candidates keep a benefit of zero and *partial is set — callers still
// get a usable (if conservative) value vector.
Result<std::vector<double>> StandaloneBenefits(const CandidateSet& set,
                                               BenefitEvaluator* evaluator,
                                               const SearchOptions& options,
                                               bool* partial) {
  std::vector<std::vector<int>> configs(set.size());
  for (size_t i = 0; i < set.size(); ++i) {
    configs[i] = {static_cast<int>(i)};
  }
  return BatchBenefits(configs, evaluator, options, partial);
}

// Greedy knapsack on precomputed per-candidate values.
std::vector<int> GreedyByDensity(const CandidateSet& set,
                                 const std::vector<double>& values,
                                 const std::vector<int>& ids,
                                 double budget) {
  std::vector<int> order = ids;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double da = values[static_cast<size_t>(a)] /
                      std::max<double>(1.0, static_cast<double>(
                                                set[static_cast<size_t>(a)]
                                                    .size_bytes()));
    const double db = values[static_cast<size_t>(b)] /
                      std::max<double>(1.0, static_cast<double>(
                                                set[static_cast<size_t>(b)]
                                                    .size_bytes()));
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<int> picked;
  double used = 0;
  for (int id : order) {
    if (values[static_cast<size_t>(id)] <= 0) continue;
    const double size =
        static_cast<double>(set[static_cast<size_t>(id)].size_bytes());
    if (used + size <= budget + kEps) {
      picked.push_back(id);
      used += size;
    }
  }
  return picked;
}

Result<SearchOutcome> RunGreedy(const CandidateSet& set,
                                BenefitEvaluator* evaluator,
                                const SearchOptions& options) {
  bool partial = false;
  XIA_ASSIGN_OR_RETURN(const std::vector<double> benefits,
                       StandaloneBenefits(set, evaluator, options, &partial));
  std::vector<int> ids(set.size());
  for (size_t i = 0; i < set.size(); ++i) ids[i] = static_cast<int>(i);
  return Finalize(
      set, GreedyByDensity(set, benefits, ids, options.disk_budget_bytes),
      evaluator, partial);
}

Result<SearchOutcome> RunGreedyWithHeuristics(const CandidateSet& set,
                                              BenefitEvaluator* evaluator,
                                              const SearchOptions& options) {
  std::vector<int> config;
  std::set<int> covered;  // basic candidate ids covered by the config
  double used = 0;
  double current_benefit = 0;
  bool partial = false;

  // One extension probe surviving the cheap admission filters; its costly
  // whole-configuration benefits live at value_index (and, for general
  // candidates, children_index) in the batch below.
  struct Probe {
    int id = -1;
    bool general = false;
    size_t value_index = 0;
    size_t children_index = 0;
  };

  for (;;) {
    if (Interrupted(options)) {
      partial = true;
      break;
    }

    // First pass (cheap): admission filters that need no
    // optimizer call decide which extension probes are worth costing.
    // Each probe extends the configuration by the ids of one span: the
    // candidate itself, or a general candidate's covered basics.
    std::vector<Probe> probes;
    std::vector<std::span<const int>> extensions;
    for (size_t i = 0; i < set.size(); ++i) {
      const Candidate& cand = set[i];
      const int id = static_cast<int>(i);
      if (std::find(config.begin(), config.end(), id) != config.end()) {
        continue;
      }
      const double size = static_cast<double>(cand.size_bytes());
      if (used + size > options.disk_budget_bytes + kEps) continue;

      if (cand.is_general) {
        // Redundancy: the coverage bitmap (§VI-A). If every workload
        // pattern this general index serves already has an index in the
        // configuration, it would replicate them.
        bool redundant = !cand.covered_basics.empty();
        for (int b : cand.covered_basics) {
          if (covered.count(b) == 0) {
            redundant = false;
            break;
          }
        }
        if (redundant) continue;

        // Size admission: Size(x_g) <= (1 + beta) * sum Size(x_i).
        double children_size = 0;
        for (int b : cand.covered_basics) {
          children_size +=
              static_cast<double>(set[static_cast<size_t>(b)].size_bytes());
        }
        if (size > (1.0 + options.beta) * children_size) continue;
      }

      Probe probe;
      probe.id = id;
      probe.general = cand.is_general;
      probe.value_index = extensions.size();
      extensions.emplace_back(&cand.id, 1);
      if (cand.is_general) {
        probe.children_index = extensions.size();
        extensions.emplace_back(cand.covered_basics);
      }
      probes.push_back(probe);
    }
    if (probes.empty()) break;

    // Second pass: cost every surviving probe against the configuration,
    // decomposed once for the whole sweep.
    const BenefitEvaluator::Base base = evaluator->DecomposeBase(config);
    XIA_ASSIGN_OR_RETURN(
        const std::vector<double> values,
        BatchProbes(
            extensions.size(),
            [&](size_t i) {
              return evaluator->ExtensionBenefit(base, extensions[i],
                                                 options.deadline,
                                                 options.cancel);
            },
            options, &partial));
    // An interrupted sweep is discarded wholesale.
    if (partial) break;

    // Third pass: benefit admission and density selection over the
    // precomputed values, in candidate order.
    int best_id = -1;
    double best_benefit = current_benefit;
    double best_density = 0;
    for (const Probe& probe : probes) {
      const double size =
          static_cast<double>(set[static_cast<size_t>(probe.id)].size_bytes());
      if (probe.general) {
        // Benefit admission: IB(x_g) >= IB(x_1..x_n).
        const double ib_general = values[probe.value_index];
        const double ib_children = values[probe.children_index];
        if (ib_general + kEps < ib_children) continue;
        const double density = (ib_general - current_benefit) / size;
        if (ib_general > current_benefit + kEps && density > best_density) {
          best_id = probe.id;
          best_benefit = ib_general;
          best_density = density;
        }
      } else {
        const double ib = values[probe.value_index];
        const double density = (ib - current_benefit) / std::max(1.0, size);
        if (ib > current_benefit + kEps && density > best_density) {
          best_id = probe.id;
          best_benefit = ib;
          best_density = density;
        }
      }
    }

    if (best_id < 0) break;
    config.push_back(best_id);
    used += static_cast<double>(set[static_cast<size_t>(best_id)].size_bytes());
    current_benefit = best_benefit;
    for (int b : set[static_cast<size_t>(best_id)].covered_basics) {
      covered.insert(b);
    }
  }
  return Finalize(set, std::move(config), evaluator, partial);
}

// Starting points of the top-down descent: maximal candidates (by the DAG)
// whose standalone benefit is positive; an ineligible node is transparently
// replaced by its children (§VI-B preprocessing).
void CollectStartingSet(const CandidateSet& set, const std::vector<int>& roots,
                        const std::vector<double>& benefits,
                        std::set<int>* out) {
  std::vector<int> stack = roots;
  std::set<int> visited;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (!visited.insert(id).second) continue;
    if (benefits[static_cast<size_t>(id)] > 0) {
      out->insert(id);
    } else {
      for (int c : set[static_cast<size_t>(id)].children) {
        stack.push_back(c);
      }
    }
  }
}

Result<SearchOutcome> RunTopDown(const CandidateSet& set,
                                 const std::vector<int>& roots,
                                 BenefitEvaluator* evaluator,
                                 const SearchOptions& options,
                                 bool full_interaction) {
  bool partial = false;
  XIA_ASSIGN_OR_RETURN(const std::vector<double> benefits,
                       StandaloneBenefits(set, evaluator, options, &partial));
  std::set<int> config_set;
  CollectStartingSet(set, roots, benefits, &config_set);

  auto total_size = [&]() {
    double t = 0;
    for (int id : config_set) {
      t += static_cast<double>(set[static_cast<size_t>(id)].size_bytes());
    }
    return t;
  };

  while (total_size() > options.disk_budget_bytes + kEps) {
    if (partial || Interrupted(options)) {
      // Out of time mid-descent: the working set may still be over
      // budget, so trim it greedily before reporting best-so-far.
      partial = true;
      std::vector<int> ids(config_set.begin(), config_set.end());
      std::vector<int> picked =
          GreedyByDensity(set, benefits, ids, options.disk_budget_bytes);
      return Finalize(set, std::move(picked), evaluator, partial);
    }
    // Choose the replaceable general index with the smallest dB/dC.
    // First pass (cheap): the size screen; it also collects the
    // costly dB probes of the full-interaction mode for one batch.
    struct Replacement {
      int id = -1;
      double dc = 0;
      std::vector<int> incoming;
      size_t with_g_index = 0;
      size_t with_children_index = 0;
    };
    std::vector<Replacement> replacements;
    std::vector<std::vector<int>> probe_configs;
    for (int id : config_set) {
      const Candidate& cand = set[static_cast<size_t>(id)];
      if (cand.children.empty()) continue;
      // Children that would newly enter the configuration.
      std::vector<int> incoming;
      double children_size = 0;
      for (int c : cand.children) {
        if (benefits[static_cast<size_t>(c)] <= 0) continue;
        if (config_set.count(c) != 0) continue;
        incoming.push_back(c);
        children_size +=
            static_cast<double>(set[static_cast<size_t>(c)].size_bytes());
      }
      const double dc =
          static_cast<double>(cand.size_bytes()) - children_size;
      if (dc <= 0) continue;  // replacement must shrink the configuration

      Replacement repl;
      repl.id = id;
      repl.dc = dc;
      if (full_interaction) {
        // dB = Benefit(base + g) - Benefit(base + children).
        std::vector<int> base(config_set.begin(), config_set.end());
        base.erase(std::remove(base.begin(), base.end(), id), base.end());
        std::vector<int> with_g = base;
        with_g.push_back(id);
        repl.with_g_index = probe_configs.size();
        probe_configs.push_back(std::move(with_g));
        std::vector<int> with_children = base;
        with_children.insert(with_children.end(), incoming.begin(),
                             incoming.end());
        repl.with_children_index = probe_configs.size();
        probe_configs.push_back(std::move(with_children));
      }
      repl.incoming = std::move(incoming);
      replacements.push_back(std::move(repl));
    }

    // Second pass: cost the dB probes. On an interrupt the step is
    // abandoned; the while-top then trims the
    // working set greedily and reports best-so-far.
    std::vector<double> probe_values;
    if (full_interaction && !replacements.empty()) {
      XIA_ASSIGN_OR_RETURN(
          probe_values,
          BatchBenefits(probe_configs, evaluator, options, &partial));
      if (partial) continue;
    }

    // Third pass: smallest dB/dC over the precomputed values, in
    // config_set (ascending id) order.
    int best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_dc = -1;
    std::vector<int> best_children;
    for (const Replacement& repl : replacements) {
      double db = 0;
      if (full_interaction) {
        db = probe_values[repl.with_g_index] -
             probe_values[repl.with_children_index];
      } else {
        double children_benefit = 0;
        for (int c : repl.incoming) {
          children_benefit += benefits[static_cast<size_t>(c)];
        }
        db = benefits[static_cast<size_t>(repl.id)] - children_benefit;
      }
      const double ratio = db / repl.dc;
      if (ratio < best_ratio - kEps ||
          (std::abs(ratio - best_ratio) <= kEps && repl.dc > best_dc)) {
        best = repl.id;
        best_ratio = ratio;
        best_dc = repl.dc;
        best_children = repl.incoming;
      }
    }

    if (best < 0) {
      // No general candidate left to replace: fall back to greedy over the
      // current members (§VI-B: "If we run out of general candidates to
      // replace and do not yet meet the disk space budget, we use greedy
      // search").
      std::vector<int> ids(config_set.begin(), config_set.end());
      std::vector<int> picked =
          GreedyByDensity(set, benefits, ids, options.disk_budget_bytes);
      return Finalize(set, std::move(picked), evaluator, partial);
    }

    config_set.erase(best);
    for (int c : best_children) config_set.insert(c);
  }

  return Finalize(set,
                  std::vector<int>(config_set.begin(), config_set.end()),
                  evaluator, partial);
}

Result<SearchOutcome> RunDynamicProgramming(const CandidateSet& set,
                                            BenefitEvaluator* evaluator,
                                            const SearchOptions& options) {
  bool partial = false;
  XIA_ASSIGN_OR_RETURN(const std::vector<double> benefits,
                       StandaloneBenefits(set, evaluator, options, &partial));
  // Knapsack over discretized sizes.
  const double unit = std::max(options.dp_granularity_bytes,
                               options.disk_budget_bytes / 4000.0);
  const size_t capacity = static_cast<size_t>(
      std::floor(options.disk_budget_bytes / std::max(1.0, unit)));
  const size_t n = set.size();

  auto weight_of = [&](size_t i) {
    return static_cast<size_t>(std::ceil(
        static_cast<double>(set[i].size_bytes()) / std::max(1.0, unit)));
  };

  // Full 2D table so the traceback is exact.
  std::vector<std::vector<double>> dp(
      n + 1, std::vector<double>(capacity + 1, 0.0));
  for (size_t i = 0; i < n; ++i) {
    const double value = benefits[i];
    const size_t weight = weight_of(i);
    for (size_t w = 0; w <= capacity; ++w) {
      dp[i + 1][w] = dp[i][w];
      if (value > 0 && weight <= w &&
          dp[i][w - weight] + value > dp[i + 1][w]) {
        dp[i + 1][w] = dp[i][w - weight] + value;
      }
    }
  }
  std::vector<int> selected;
  size_t w = capacity;
  for (size_t i = n; i-- > 0;) {
    if (dp[i + 1][w] != dp[i][w]) {
      selected.push_back(static_cast<int>(i));
      w -= weight_of(i);
    }
  }
  // The table fill itself is pure arithmetic — only the benefit probes
  // above are deadline-polled, so a partial run is DP over the benefits
  // computed in time (zeros elsewhere).
  return Finalize(set, std::move(selected), evaluator, partial);
}

Result<SearchOutcome> RunExhaustive(const CandidateSet& set,
                                    BenefitEvaluator* evaluator,
                                    const SearchOptions& options) {
  const size_t n = set.size();
  if (n > options.exhaustive_limit) {
    return Status::InvalidArgument(StringPrintf(
        "exhaustive search refused: %zu candidates exceeds the limit of "
        "%zu (2^n configurations)",
        n, options.exhaustive_limit));
  }
  // Enumerate the affordable subsets first (pure arithmetic), then cost
  // them as one batch. The best pick scans the values in mask order with
  // a strict comparison; a subset the deadline cut off keeps a value of
  // zero and can never displace an evaluated best.
  std::vector<std::vector<int>> configs;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<int> config;
    double size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        config.push_back(static_cast<int>(i));
        size += static_cast<double>(set[i].size_bytes());
      }
    }
    if (size > options.disk_budget_bytes + kEps) continue;
    configs.push_back(std::move(config));
  }
  bool partial = false;
  XIA_ASSIGN_OR_RETURN(const std::vector<double> values,
                       BatchBenefits(configs, evaluator, options, &partial));
  std::vector<int> best_config;
  double best_benefit = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (values[i] > best_benefit + kEps) {
      best_benefit = values[i];
      best_config = configs[i];
    }
  }
  return Finalize(set, std::move(best_config), evaluator, partial);
}

}  // namespace

const char* SearchAlgorithmName(SearchAlgorithm a) {
  switch (a) {
    case SearchAlgorithm::kGreedy:
      return "greedy";
    case SearchAlgorithm::kGreedyWithHeuristics:
      return "greedy+heuristics";
    case SearchAlgorithm::kTopDownLite:
      return "top-down lite";
    case SearchAlgorithm::kTopDownFull:
      return "top-down full";
    case SearchAlgorithm::kDynamicProgramming:
      return "dynamic programming";
    case SearchAlgorithm::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

Result<SearchAlgorithm> ParseSearchAlgorithm(std::string_view name) {
  if (name == "greedy") return SearchAlgorithm::kGreedy;
  if (name == "heuristics") return SearchAlgorithm::kGreedyWithHeuristics;
  if (name == "topdown-lite") return SearchAlgorithm::kTopDownLite;
  if (name == "topdown-full") return SearchAlgorithm::kTopDownFull;
  if (name == "dp") return SearchAlgorithm::kDynamicProgramming;
  return Status::InvalidArgument("unknown advise algorithm: " +
                                 std::string(name));
}

Result<SearchOutcome> RunSearch(SearchAlgorithm algorithm,
                                const CandidateSet& set,
                                const std::vector<int>& roots,
                                BenefitEvaluator* evaluator,
                                const SearchOptions& options) {
  XIA_FAULT_INJECT(fault::points::kAdvisorSearch);
  switch (algorithm) {
    case SearchAlgorithm::kGreedy:
      return RunGreedy(set, evaluator, options);
    case SearchAlgorithm::kGreedyWithHeuristics:
      return RunGreedyWithHeuristics(set, evaluator, options);
    case SearchAlgorithm::kTopDownLite:
      return RunTopDown(set, roots, evaluator, options,
                        /*full_interaction=*/false);
    case SearchAlgorithm::kTopDownFull:
      return RunTopDown(set, roots, evaluator, options,
                        /*full_interaction=*/true);
    case SearchAlgorithm::kDynamicProgramming:
      return RunDynamicProgramming(set, evaluator, options);
    case SearchAlgorithm::kExhaustive:
      return RunExhaustive(set, evaluator, options);
  }
  return Status::InvalidArgument("unknown search algorithm");
}

}  // namespace xia::advisor
