// Corpus-scale experiment execution and the aggregations used by the
// paper's figures and tables: relative makespan/work series (Figures
// 2-3 and 6-7), pairwise better/equal/worse counts (Table V) and
// degradation from best (Table VI).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "exp/runner.hpp"
#include "exp/session.hpp"

namespace rats {

/// One named algorithm configuration to evaluate.
struct AlgoSpec {
  std::string name;
  SchedulerOptions options;
};

/// Outcomes of running every corpus entry with every algorithm on one
/// cluster: `outcome[entry][algo]`.
struct ExperimentData {
  std::string cluster_name;
  std::vector<std::string> algo_names;
  std::vector<DagFamily> families;      ///< per corpus entry
  std::vector<std::string> entry_names; ///< per corpus entry
  std::vector<std::vector<RunOutcome>> outcome;

  std::size_t entries() const { return outcome.size(); }
  std::size_t algos() const { return algo_names.size(); }
};

/// Runs the full cross product corpus x algos on `cluster`, in
/// parallel over scenarios (`threads` workers, 0 = hardware
/// concurrency).  `session`, when given, observes every run (run index
/// = entry * algos + algo) and may attach per-run trace sinks — this is
/// how a traced scenario shares one simulation pass between report and
/// trace (see exp/session.hpp).  `base_sim`, when given, seeds every
/// run's SimulatorOptions (per-run trace sinks are layered on top) —
/// the hook a platform event timeline rides in on.
ExperimentData run_experiment(const std::vector<CorpusEntry>& corpus,
                              const Cluster& cluster,
                              const std::vector<AlgoSpec>& algos,
                              unsigned threads = 0,
                              RunSession* session = nullptr,
                              const SimulatorOptions* base_sim = nullptr);

/// The algorithm set of entry `entry` on cluster `cluster`.
using AlgoSetOf = std::function<const std::vector<AlgoSpec>&(
    std::size_t cluster, std::size_t entry)>;

/// The run matrix behind run_experiment and the tuned presets: every
/// (cluster, entry, algorithm) run is one job of a single worker-pool
/// batch (run index = (cluster * entries + entry) * algos + algo), so
/// multi-cluster tables keep all workers busy across cluster
/// boundaries.  Every set `algos_for` returns must list the same
/// algorithms in the same order; results are in `clusters` order, each
/// in corpus order.
///
/// The steps of a run execute at different grains.  Step one (the
/// allocation) runs once per (cluster, entry, allocation kind), in the
/// first run that needs it, and every later run of that entry whose
/// scheduler reads the same kind reuses it (HCPA, both RATS mappings
/// and every RATS sweep point share HCPA's).  Step two (the mapping)
/// runs once per run.  The simulation runs once per distinct schedule
/// of a (cluster, entry): a run whose schedule equals an earlier run's
/// in every field the simulator reads gets that simulation's outcome,
/// bit for bit, and a traced run gets a copy of its trace events.  If
/// that simulation is still running, the run parks instead of waiting,
/// and the thread simulating it ends the run.  A run the session
/// injects allocates and simulates nothing, so a serve shard only
/// computes the entries it runs.
std::vector<ExperimentData> run_experiments(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Cluster>& clusters, const AlgoSetOf& algos_for,
    unsigned threads = 0, RunSession* session = nullptr,
    const SimulatorOptions* base_sim = nullptr);

/// Per-entry ratio metric(algo) / metric(reference algo), e.g. the
/// "makespan relative to HCPA" of Figures 2 and 6.  `metric` selects
/// makespan (true) or work (false).
std::vector<double> relative_series(const ExperimentData& data,
                                    std::size_t algo, std::size_t reference,
                                    bool makespan);

/// Summary of one relative series: its mean and the fraction of
/// entries strictly below 1 (i.e. better than the reference).
struct RelativeSummary {
  double mean_ratio{};
  double fraction_better{};
  double fraction_equal{};
};
RelativeSummary summarize_relative(const std::vector<double>& ratios,
                                   double tolerance = 1e-6);

/// Pairwise comparison counts of Table V.
struct PairwiseCounts {
  int better = 0;
  int equal = 0;
  int worse = 0;
};

/// Compares makespans of `algo_a` vs `algo_b` over all entries.
PairwiseCounts pairwise_compare(const ExperimentData& data, std::size_t algo_a,
                                std::size_t algo_b, double tolerance = 1e-6);

/// "Combined" columns of Table V: better/equal/worse of `algo` against
/// the best of all other algorithms, as fractions of the corpus.
struct CombinedFractions {
  double better{};
  double equal{};
  double worse{};
};
CombinedFractions combined_compare(const ExperimentData& data,
                                   std::size_t algo,
                                   double tolerance = 1e-6);

/// Degradation-from-best statistics of Table VI for one algorithm.
struct Degradation {
  double avg_over_all{};       ///< mean over every experiment
  int not_best = 0;            ///< experiments where the algo was not best
  double avg_over_not_best{};  ///< mean over those experiments only
};
Degradation degradation_from_best(const ExperimentData& data,
                                  std::size_t algo, double tolerance = 1e-6);

/// Sorted copy of a series sampled at `points` evenly spaced
/// percentiles — the compact rendering of the paper's sorted-curve
/// figures.
std::vector<double> sorted_curve(std::vector<double> series, int points = 21);

}  // namespace rats
