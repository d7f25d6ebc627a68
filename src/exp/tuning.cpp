#include "exp/tuning.hpp"

#include "common/error.hpp"

namespace rats {

std::vector<double> tuning_mindeltas() { return {0.0, -0.25, -0.5, -0.75}; }
std::vector<double> tuning_maxdeltas() { return {0.0, 0.25, 0.5, 0.75, 1.0}; }
std::vector<double> tuning_minrhos() { return {0.2, 0.4, 0.5, 0.6, 0.8, 1.0}; }

std::vector<double> sweep_grid(const std::vector<CorpusEntry>& corpus,
                               const Cluster& cluster,
                               const std::vector<SchedulerOptions>& points,
                               unsigned threads, RunSession* session,
                               const SimulatorOptions* base_sim) {
  RATS_REQUIRE(!corpus.empty(), "sweep needs a corpus");
  // All grid points ride through the experiment runner as one batch:
  // algo 0 is the HCPA reference, the rest are the sweep points, and
  // the whole points x corpus cross product is claimed by one worker
  // pool instead of a serial per-point loop.
  std::vector<AlgoSpec> algos;
  algos.reserve(points.size() + 1);
  SchedulerOptions hcpa;
  hcpa.kind = SchedulerKind::Hcpa;
  algos.push_back(AlgoSpec{"HCPA", hcpa});
  for (std::size_t p = 0; p < points.size(); ++p)
    algos.push_back(AlgoSpec{"point" + std::to_string(p), points[p]});

  const ExperimentData data =
      run_experiment(corpus, cluster, algos, threads, session, base_sim);

  std::vector<double> averages;
  averages.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    averages.push_back(
        summarize_relative(relative_series(data, p + 1, 0, /*makespan=*/true))
            .mean_ratio);
  return averages;
}

TunedParams tune(const std::vector<CorpusEntry>& corpus,
                 const Cluster& cluster, unsigned threads) {
  std::vector<SchedulerOptions> points;
  for (double mindelta : tuning_mindeltas()) {
    for (double maxdelta : tuning_maxdeltas()) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsDelta;
      options.rats.mindelta = mindelta;
      options.rats.maxdelta = maxdelta;
      points.push_back(options);
    }
  }
  const std::size_t num_delta = points.size();
  for (double minrho : tuning_minrhos()) {
    SchedulerOptions options;
    options.kind = SchedulerKind::RatsTimeCost;
    options.rats.minrho = minrho;
    points.push_back(options);
  }
  const std::vector<double> avg = sweep_grid(corpus, cluster, points, threads);
  const auto best = [&](std::size_t begin, std::size_t end) {
    std::size_t b = begin;
    for (std::size_t p = begin + 1; p < end; ++p)
      if (avg[p] < avg[b]) b = p;
    return points[b].rats;
  };
  const RatsParams delta = best(0, num_delta);
  return TunedParams{delta.mindelta, delta.maxdelta,
                     best(num_delta, points.size()).minrho};
}

}  // namespace rats
