// Parameter tuning experiments (paper Section IV-C): sweep the RATS
// parameters against the HCPA reference and pick, per application type
// and cluster, the values minimizing the average relative makespan —
// Table IV.  The Figures 4 and 5 pivot tables are scenario kinds over
// the same sweep_grid batch (scenario/registry.cpp).
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
/// algo 0 being the HCPA reference) — the hook that lets the sweep
/// kinds trace their whole grid in the pass that scores it.
/// `base_sim` seeds every run's SimulatorOptions (see run_experiment)
/// — how a platform event timeline degrades a whole sweep.
std::vector<double> sweep_grid(const std::vector<CorpusEntry>& corpus,
                               const Cluster& cluster,
                               const std::vector<SchedulerOptions>& points,
                               unsigned threads = 0,
                               RunSession* session = nullptr,
                               const SimulatorOptions* base_sim = nullptr);

/// One Table IV cell: tuned (mindelta, maxdelta, minrho).  The paper's
/// (mindelta, maxdelta) grid on RATS-delta and its minrho grid on
/// RATS-time-cost with packing are scored in one sweep_grid batch
/// against one HCPA reference; each triple value is its grid's first
/// best point.
struct TunedParams {
  double mindelta{};
  double maxdelta{};
  double minrho{};
};
TunedParams tune(const std::vector<CorpusEntry>& corpus,
                 const Cluster& cluster, unsigned threads = 0);

}  // namespace rats
