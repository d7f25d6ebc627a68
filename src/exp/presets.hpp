// Paper-experiment presets of the scenario engine: corpus construction
// (with its "corpus: ..." announcement lines, captured into report
// models), the naive/tuned algorithm sets of the paper's main
// comparison, and tuned multi-cluster batch execution.  The ablation
// benches build their corpora through the same functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "exp/experiment.hpp"
#include "exp/session.hpp"
#include "platform/grid5000.hpp"
#include "sched/scheduler.hpp"

namespace rats::presets {

/// Corpus sizing shared by every bench command line and scenario
/// workload section.  Without `full` the corpus is scaled down (1
/// random sample, 5 kernel samples) so a whole suite runs in minutes;
/// relative results are stable across corpus sizes because every entry
/// is an independent scenario.
struct CorpusConfig {
  bool full = false;
  int samples_random = 1;
  int samples_kernel = 5;
  std::uint64_t seed = 42;
};

/// Corpus options implied by the config (full restores the paper's
/// 3/25 sampling).
CorpusOptions corpus_options(const CorpusConfig& cfg);

/// Builds the corpus (all families) for the config.  `announce`, when
/// given, receives the legacy "corpus: ..." size line (the report
/// models capture it; nullptr stays silent).
std::vector<CorpusEntry> make_corpus(const CorpusConfig& cfg,
                                     std::string* announce = nullptr);

/// Builds one family's sub-corpus for the config.
std::vector<CorpusEntry> make_family(DagFamily family,
                                     const CorpusConfig& cfg,
                                     std::string* announce = nullptr);

/// Keeps at most `n` entries of each family (deterministic stride
/// subsample, preserving parameter diversity).  No-op when n == 0 or
/// cfg.full was given — heavy benches use this to stay tractable on
/// small machines while --full restores the complete corpus.
/// `announce`, when given, receives the "(capped to ...)" line (quiet
/// callers like the trace replay must still pick identical entries).
std::vector<CorpusEntry> cap_per_family(std::vector<CorpusEntry> corpus,
                                        const CorpusConfig& cfg, int n,
                                        std::string* announce = nullptr);

/// The three algorithm specs of the paper's main comparison with naive
/// RATS parameters (Figures 2-3): HCPA, delta(0.5), time-cost(0.5).
std::vector<AlgoSpec> naive_algos();

/// The paper's tuned RATS parameters (Table IV) for one application
/// family on one cluster (cluster matched by name).
RatsParams paper_tuned_params(DagFamily family, const std::string& cluster);

/// Algorithm specs with Table IV tuned parameters for `family` on
/// `cluster`: HCPA, tuned delta, tuned time-cost.
std::vector<AlgoSpec> tuned_algos(DagFamily family,
                                  const std::string& cluster);

/// Runs HCPA / tuned delta / tuned time-cost on `corpus` grouped by
/// family (each family uses its Table IV parameters for `cluster`) and
/// returns the merged outcomes in corpus order.  Algorithm order:
/// {HCPA, delta, time-cost}.  `session` observes every run (see
/// exp/session.hpp); run index = entry * 3 + algo.  `base_sim` seeds
/// every run's SimulatorOptions (see run_experiment).
ExperimentData run_tuned_experiment(const std::vector<CorpusEntry>& corpus,
                                    const Cluster& cluster,
                                    unsigned threads = 0,
                                    RunSession* session = nullptr,
                                    const SimulatorOptions* base_sim = nullptr);

/// Multi-cluster form of `run_tuned_experiment`: one run_experiments
/// matrix (exp/experiment.hpp), so multi-cluster tables (V, VI) keep
/// all `--threads` workers busy across cluster boundaries and allocate
/// once per (cluster, entry).  Results are in `clusters` order, each in
/// corpus order.  `session` observes every job (run index = (cluster *
/// entries + entry) * 3 + algo).
std::vector<ExperimentData> run_tuned_experiments(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Cluster>& clusters, unsigned threads = 0,
    RunSession* session = nullptr,
    const SimulatorOptions* base_sim = nullptr);

}  // namespace rats::presets
