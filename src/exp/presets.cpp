#include "exp/presets.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/format.hpp"

namespace rats::presets {

CorpusOptions corpus_options(const CorpusConfig& cfg) {
  CorpusOptions opt;
  opt.seed = cfg.seed;
  if (cfg.full) {
    opt.random_samples = 3;
    opt.kernel_samples = 25;
  } else {
    opt.random_samples = cfg.samples_random;
    opt.kernel_samples = cfg.samples_kernel;
  }
  return opt;
}

std::vector<CorpusEntry> make_corpus(const CorpusConfig& cfg,
                                     std::string* announce) {
  auto corpus = build_corpus(corpus_options(cfg));
  if (announce)
    *announce += strf("corpus: %zu configurations (%s)\n", corpus.size(),
                      cfg.full ? "paper scale"
                               : "reduced scale; use --full for 557");
  return corpus;
}

std::vector<CorpusEntry> make_family(DagFamily family,
                                     const CorpusConfig& cfg,
                                     std::string* announce) {
  auto corpus = build_family(family, corpus_options(cfg));
  if (announce)
    *announce += strf("corpus: %zu %s configurations (%s)\n", corpus.size(),
                      to_string(family).c_str(),
                      cfg.full ? "paper scale" : "reduced scale; use --full");
  return corpus;
}

std::vector<CorpusEntry> cap_per_family(std::vector<CorpusEntry> corpus,
                                        const CorpusConfig& cfg, int n,
                                        std::string* announce) {
  if (n <= 0 || cfg.full) return corpus;
  std::vector<CorpusEntry> capped;
  for (DagFamily family : {DagFamily::Layered, DagFamily::Irregular,
                           DagFamily::FFT, DagFamily::Strassen}) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < corpus.size(); ++i)
      if (corpus[i].family == family) idx.push_back(i);
    if (idx.empty()) continue;
    // Stride subsample keeps the spread over the parameter grid.
    const std::size_t keep = std::min<std::size_t>(idx.size(),
                                                   static_cast<std::size_t>(n));
    for (std::size_t k = 0; k < keep; ++k)
      capped.push_back(corpus[idx[k * idx.size() / keep]]);
  }
  if (announce && capped.size() < corpus.size())
    *announce += strf("  (capped to %zu entries; --full runs all %zu)\n",
                      capped.size(), corpus.size());
  return capped;
}

std::vector<AlgoSpec> naive_algos() {
  SchedulerOptions hcpa;
  hcpa.kind = SchedulerKind::Hcpa;

  SchedulerOptions delta;
  delta.kind = SchedulerKind::RatsDelta;
  delta.rats.mindelta = -0.5;
  delta.rats.maxdelta = 0.5;

  SchedulerOptions timecost;
  timecost.kind = SchedulerKind::RatsTimeCost;
  timecost.rats.minrho = 0.5;
  timecost.rats.packing = true;

  return {{"HCPA", hcpa}, {"delta", delta}, {"time-cost", timecost}};
}

RatsParams paper_tuned_params(DagFamily family, const std::string& cluster) {
  // Table IV: (mindelta, maxdelta, minrho) per application type and
  // cluster.  Row order: chti, grillon, grelon.
  struct Cell {
    double mindelta, maxdelta, minrho;
  };
  auto pick = [&](Cell chti, Cell grillon, Cell grelon) {
    if (cluster == "chti") return chti;
    if (cluster == "grelon") return grelon;
    return grillon;  // default to the paper's most-shown cluster
  };
  Cell c{};
  switch (family) {
    case DagFamily::FFT:
      c = pick({-.5, 1, .2}, {-.5, 1, .2}, {-.25, .75, .4});
      break;
    case DagFamily::Strassen:
      c = pick({-.25, .5, .5}, {0, 1, .4}, {-.25, 1, .5});
      break;
    case DagFamily::Layered:
      c = pick({-.5, 1, .2}, {-.25, 1, .2}, {-.5, 1, .2});
      break;
    case DagFamily::Irregular:
      c = pick({-.75, 1, .5}, {-.75, 1, .5}, {-.75, 1, .4});
      break;
  }
  RatsParams p;
  p.mindelta = c.mindelta;
  p.maxdelta = c.maxdelta;
  p.minrho = c.minrho;
  p.packing = true;
  return p;
}

std::vector<AlgoSpec> tuned_algos(DagFamily family,
                                  const std::string& cluster) {
  auto algos = naive_algos();
  RatsParams tuned = paper_tuned_params(family, cluster);
  algos[1].options.rats = tuned;
  algos[2].options.rats = tuned;
  return algos;
}

ExperimentData run_tuned_experiment(const std::vector<CorpusEntry>& corpus,
                                    const Cluster& cluster,
                                    unsigned threads, RunSession* session,
                                    const SimulatorOptions* base_sim) {
  return run_tuned_experiments(corpus, {cluster}, threads, session, base_sim)
      .front();
}

std::vector<ExperimentData> run_tuned_experiments(
    const std::vector<CorpusEntry>& corpus,
    const std::vector<Cluster>& clusters, unsigned threads,
    RunSession* session, const SimulatorOptions* base_sim) {
  constexpr DagFamily kFamilies[] = {DagFamily::Layered, DagFamily::Irregular,
                                     DagFamily::FFT, DagFamily::Strassen};
  // Per (cluster, family) tuned algorithm specs, resolved up front so
  // jobs only read shared state.
  std::vector<std::vector<std::vector<AlgoSpec>>> specs(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c)
    for (const DagFamily family : kFamilies)
      specs[c].push_back(tuned_algos(family, clusters[c].name()));
  const auto family_index = [&](DagFamily family) {
    for (std::size_t k = 0; k < std::size(kFamilies); ++k)
      if (kFamilies[k] == family) return k;
    RATS_REQUIRE(false, "unknown DAG family");
    return std::size_t{0};
  };
  return run_experiments(
      corpus, clusters,
      [&](std::size_t c, std::size_t e) -> const std::vector<AlgoSpec>& {
        return specs[c][family_index(corpus[e].family)];
      },
      threads, session, base_sim);
}

}  // namespace rats::presets
