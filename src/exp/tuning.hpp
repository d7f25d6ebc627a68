// Parameter tuning experiments (paper Section IV-C): sweep the RATS
// parameters against the HCPA reference and pick, per application type
// and cluster, the values minimizing the average relative makespan —
// Figures 4 and 5 and Table IV.
#pragma once

#include <vector>

#include "daggen/corpus.hpp"
#include "exp/experiment.hpp"

namespace rats {

/// Parameter values tested in the paper.
std::vector<double> tuning_mindeltas();  ///< {0, -0.25, -0.5, -0.75}
std::vector<double> tuning_maxdeltas();  ///< {0, 0.25, 0.5, 0.75, 1}
std::vector<double> tuning_minrhos();    ///< {0.2, 0.4, 0.5, 0.6, 0.8, 1}

/// Average relative makespan (vs a freshly computed HCPA reference) of
/// every sweep point, batched through the experiment runner as one
/// (points + reference) x corpus parallel job.  `session` observes
/// every run of that batch (run index = entry * (points + 1) + algo,
/// algo 0 being the HCPA reference) — the hook that lets the generic
/// sweep kind trace its whole grid in the pass that scores it.
/// `base_sim` seeds every run's SimulatorOptions (see run_experiment)
/// — how a platform event timeline degrades a whole sweep.
std::vector<double> sweep_grid(const std::vector<CorpusEntry>& corpus,
                               const Cluster& cluster,
                               const std::vector<SchedulerOptions>& points,
                               unsigned threads = 0,
                               RunSession* session = nullptr,
                               const SimulatorOptions* base_sim = nullptr);

/// The (mindelta, maxdelta) surface of Figure 4.
struct DeltaSweep {
  std::vector<double> mindeltas;
  std::vector<double> maxdeltas;
  /// avg relative makespan, indexed [mindelta][maxdelta]
  std::vector<std::vector<double>> avg_relative;
  double best_mindelta{};
  double best_maxdelta{};
  double best_value{};
};
DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster, unsigned threads = 0);

/// Custom-grid form (the scenario engine's [sweep] section); an empty
/// list falls back to that parameter's paper grid above.
DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster,
                       const std::vector<double>& mindeltas,
                       const std::vector<double>& maxdeltas,
                       unsigned threads = 0, RunSession* session = nullptr,
                       const SimulatorOptions* base_sim = nullptr);

/// The minrho curves (packing on/off) of Figure 5.
struct RhoSweep {
  std::vector<double> minrhos;
  std::vector<double> with_packing;     ///< avg relative makespan
  std::vector<double> without_packing;
  double best_minrho{};
  double best_value{};  ///< with packing (always at least as good)
};
RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster, unsigned threads = 0);

/// Custom-grid form (the scenario engine's [sweep] section); an empty
/// list falls back to the paper grid.
RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster,
                   const std::vector<double>& minrhos, unsigned threads = 0,
                   RunSession* session = nullptr,
                   const SimulatorOptions* base_sim = nullptr);

/// One Table IV cell: tuned (mindelta, maxdelta, minrho).  Both paper
/// grids are scored in one sweep_grid batch against one HCPA reference.
struct TunedParams {
  double mindelta{};
  double maxdelta{};
  double minrho{};
};
TunedParams tune(const std::vector<CorpusEntry>& corpus,
                 const Cluster& cluster, unsigned threads = 0);

}  // namespace rats
