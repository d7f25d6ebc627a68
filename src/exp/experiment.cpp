#include "exp/experiment.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>

#include "common/error.hpp"
#include "exp/parallel.hpp"

namespace rats {

namespace {

/// Step one of a run matrix: one slot per (cluster, entry, allocation
/// kind), filled by the first run that reads it.  A failed allocation
/// is stored and rethrown to every run that reads its slot, so each
/// slot allocates exactly once and no exception crosses call_once
/// (which hangs the waiting threads on libstdc++ targets whose
/// pthread_once cannot unwind, GCC bug 66146).
class StepOneTable {
 public:
  explicit StepOneTable(std::size_t pairs) : slots_(pairs * kKinds) {}

  const Allocation& get(std::size_t pair, const TaskGraph& graph,
                        const Cluster& cluster, AllocationKind kind) {
    Slot& slot = slots_[pair * kKinds + static_cast<std::size_t>(kind)];
    std::call_once(slot.once, [&] {
      try {
        slot.allocation = allocate(graph, cluster, AllocationOptions{kind});
      } catch (...) {
        slot.failure = std::current_exception();
      }
    });
    if (slot.failure) std::rethrow_exception(slot.failure);
    return slot.allocation;
  }

 private:
  static constexpr std::size_t kKinds = 3;  ///< AllocationKind values
  struct Slot {
    std::once_flag once;
    Allocation allocation;
    std::exception_ptr failure;
  };
  std::vector<Slot> slots_;
};

}  // namespace

ExperimentData run_experiment(const std::vector<CorpusEntry>& corpus,
                              const Cluster& cluster,
                              const std::vector<AlgoSpec>& algos,
                              unsigned threads, RunSession* session,
                              const SimulatorOptions* base_sim) {
  const auto same_set = [&](std::size_t, std::size_t)
      -> const std::vector<AlgoSpec>& { return algos; };
  return std::move(run_experiments(corpus, {cluster}, same_set, threads,
                                   session, base_sim)
                       .front());
}

std::vector<ExperimentData> run_experiments(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Cluster>& clusters, const AlgoSetOf& algos_for,
    unsigned threads, RunSession* session, const SimulatorOptions* base_sim) {
  RATS_REQUIRE(!corpus.empty() && !clusters.empty(),
               "experiment needs a corpus and a cluster");
  const std::size_t num_algos = algos_for(0, 0).size();
  RATS_REQUIRE(num_algos > 0, "experiment needs algorithms");
  std::vector<ExperimentData> results(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    ExperimentData& data = results[c];
    data.cluster_name = clusters[c].name();
    for (const auto& a : algos_for(c, 0)) data.algo_names.push_back(a.name);
    data.families.reserve(corpus.size());
    data.entry_names.reserve(corpus.size());
    for (const auto& entry : corpus) {
      data.families.push_back(entry.family);
      data.entry_names.push_back(entry.name);
    }
    data.outcome.assign(corpus.size(), std::vector<RunOutcome>(num_algos));
  }

  StepOneTable step_one(clusters.size() * corpus.size());
  const std::size_t per_cluster = corpus.size() * num_algos;
  if (session) session->begin_matrix(clusters.size() * per_cluster);
  parallel_for(clusters.size() * per_cluster, [&](std::size_t j) {
    const std::size_t c = j / per_cluster;
    const std::size_t e = (j % per_cluster) / num_algos;
    const std::size_t a = j % num_algos;
    const std::vector<AlgoSpec>& algos = algos_for(c, e);
    RATS_REQUIRE(algos.size() == num_algos,
                 "algorithm list changed size across entries");
    const AlgoSpec& spec = algos[a];
    RunOutcome& out = results[c].outcome[e][a];
    const RunMeta meta{corpus[e].name, spec.name, clusters[c].name()};
    if (session && session->inject(j, meta, out)) return;
    SimulatorOptions sim = base_sim ? *base_sim : SimulatorOptions{};
    if (session) sim.trace = session->begin_run(j, meta);
    const Allocation& allocation =
        step_one.get(c * corpus.size() + e, corpus[e].graph, clusters[c],
                     allocation_kind(spec.options.kind));
    out = run_scenario(corpus[e].graph, clusters[c], allocation,
                       spec.options, sim);
    if (session) session->end_run(j, out);
  }, threads);
  return results;
}

std::vector<double> relative_series(const ExperimentData& data,
                                    std::size_t algo, std::size_t reference,
                                    bool makespan) {
  RATS_REQUIRE(algo < data.algos() && reference < data.algos(),
               "algorithm index out of range");
  std::vector<double> ratios;
  ratios.reserve(data.entries());
  for (std::size_t e = 0; e < data.entries(); ++e) {
    const double num = makespan ? data.outcome[e][algo].makespan
                                : data.outcome[e][algo].work;
    const double den = makespan ? data.outcome[e][reference].makespan
                                : data.outcome[e][reference].work;
    RATS_REQUIRE(den > 0, "reference metric must be positive");
    ratios.push_back(num / den);
  }
  return ratios;
}

RelativeSummary summarize_relative(const std::vector<double>& ratios,
                                   double tolerance) {
  RelativeSummary s;
  if (ratios.empty()) return s;
  double sum = 0;
  int better = 0;
  int equal = 0;
  for (double r : ratios) {
    sum += r;
    if (std::abs(r - 1.0) <= tolerance) {
      ++equal;
    } else if (r < 1.0) {
      ++better;
    }
  }
  const auto n = static_cast<double>(ratios.size());
  s.mean_ratio = sum / n;
  s.fraction_better = better / n;
  s.fraction_equal = equal / n;
  return s;
}

namespace {
int compare_with_tolerance(double a, double b, double tolerance) {
  // Relative comparison: runs are "equal" when within `tolerance` of
  // each other (identical schedules simulate to identical times; the
  // tolerance only absorbs floating-point noise).
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  const double diff = (a - b) / scale;
  if (diff < -tolerance) return -1;
  if (diff > tolerance) return 1;
  return 0;
}
}  // namespace

PairwiseCounts pairwise_compare(const ExperimentData& data, std::size_t algo_a,
                                std::size_t algo_b, double tolerance) {
  PairwiseCounts c;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    const int cmp = compare_with_tolerance(data.outcome[e][algo_a].makespan,
                                           data.outcome[e][algo_b].makespan,
                                           tolerance);
    if (cmp < 0) {
      ++c.better;  // a's makespan smaller: a better
    } else if (cmp > 0) {
      ++c.worse;
    } else {
      ++c.equal;
    }
  }
  return c;
}

CombinedFractions combined_compare(const ExperimentData& data,
                                   std::size_t algo, double tolerance) {
  CombinedFractions f;
  if (data.entries() == 0) return f;
  int better = 0;
  int equal = 0;
  int worse = 0;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    double best_other = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < data.algos(); ++a)
      if (a != algo)
        best_other = std::min(best_other, data.outcome[e][a].makespan);
    const int cmp = compare_with_tolerance(data.outcome[e][algo].makespan,
                                           best_other, tolerance);
    if (cmp < 0) {
      ++better;
    } else if (cmp > 0) {
      ++worse;
    } else {
      ++equal;
    }
  }
  const auto n = static_cast<double>(data.entries());
  f.better = better / n;
  f.equal = equal / n;
  f.worse = worse / n;
  return f;
}

Degradation degradation_from_best(const ExperimentData& data,
                                  std::size_t algo, double tolerance) {
  Degradation d;
  if (data.entries() == 0) return d;
  double sum_all = 0;
  double sum_not_best = 0;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < data.algos(); ++a)
      best = std::min(best, data.outcome[e][a].makespan);
    const double mine = data.outcome[e][algo].makespan;
    const double degradation = (mine - best) / best;
    sum_all += degradation;
    if (compare_with_tolerance(mine, best, tolerance) > 0) {
      ++d.not_best;
      sum_not_best += degradation;
    }
  }
  d.avg_over_all = sum_all / static_cast<double>(data.entries());
  d.avg_over_not_best = d.not_best ? sum_not_best / d.not_best : 0.0;
  return d;
}

std::vector<double> sorted_curve(std::vector<double> series, int points) {
  RATS_REQUIRE(points >= 2, "curve needs at least two points");
  std::sort(series.begin(), series.end());
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(points));
  if (series.empty()) return curve;
  for (int i = 0; i < points; ++i) {
    const double pos = static_cast<double>(i) / (points - 1) *
                       static_cast<double>(series.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, series.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    curve.push_back(series[lo] + frac * (series[hi] - series[lo]));
  }
  return curve;
}

}  // namespace rats
