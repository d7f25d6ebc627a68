#include "exp/tuning.hpp"

#include <limits>

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

namespace {

/// Fills `sweep`'s grids (an empty list selects the paper grid) and
/// returns its points in [mindelta][maxdelta] order.
std::vector<SchedulerOptions> delta_points(DeltaSweep& sweep,
                                           const std::vector<double>& mindeltas,
                                           const std::vector<double>& maxdeltas) {
  sweep.mindeltas = mindeltas.empty() ? tuning_mindeltas() : mindeltas;
  sweep.maxdeltas = maxdeltas.empty() ? tuning_maxdeltas() : maxdeltas;
  std::vector<SchedulerOptions> points;
  for (double mindelta : sweep.mindeltas) {
    for (double maxdelta : sweep.maxdeltas) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsDelta;
      options.rats.mindelta = mindelta;
      options.rats.maxdelta = maxdelta;
      points.push_back(options);
    }
  }
  return points;
}

/// Reads the surface and best cell from the points' averages at `avg`.
void score_delta(DeltaSweep& sweep, const double* avg) {
  sweep.best_value = std::numeric_limits<double>::infinity();
  for (double mindelta : sweep.mindeltas) {
    std::vector<double> row;
    for (double maxdelta : sweep.maxdeltas) {
      const double value = *avg++;
      row.push_back(value);
      if (value < sweep.best_value) {
        sweep.best_value = value;
        sweep.best_mindelta = mindelta;
        sweep.best_maxdelta = maxdelta;
      }
    }
    sweep.avg_relative.push_back(std::move(row));
  }
}

/// Fills `sweep`'s grid (empty selects the paper grid) and returns its
/// points, packing on then off for each minrho.
std::vector<SchedulerOptions> rho_points(RhoSweep& sweep,
                                         const std::vector<double>& minrhos) {
  sweep.minrhos = minrhos.empty() ? tuning_minrhos() : minrhos;
  std::vector<SchedulerOptions> points;
  for (double minrho : sweep.minrhos) {
    for (bool packing : {true, false}) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsTimeCost;
      options.rats.minrho = minrho;
      options.rats.packing = packing;
      points.push_back(options);
    }
  }
  return points;
}

/// Reads both curves and the best minrho from the averages at `avg`.
void score_rho(RhoSweep& sweep, const double* avg) {
  sweep.best_value = std::numeric_limits<double>::infinity();
  for (double minrho : sweep.minrhos) {
    for (bool packing : {true, false}) {
      const double value = *avg++;
      (packing ? sweep.with_packing : sweep.without_packing).push_back(value);
      if (packing && value < sweep.best_value) {
        sweep.best_value = value;
        sweep.best_minrho = minrho;
      }
    }
  }
}

}  // namespace

DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster, unsigned threads) {
  return sweep_delta(corpus, cluster, {}, {}, threads);
}

DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster,
                       const std::vector<double>& mindeltas,
                       const std::vector<double>& maxdeltas,
                       unsigned threads, RunSession* session,
                       const SimulatorOptions* base_sim) {
  DeltaSweep sweep;
  const auto points = delta_points(sweep, mindeltas, maxdeltas);
  score_delta(sweep, sweep_grid(corpus, cluster, points, threads, session,
                                base_sim)
                         .data());
  return sweep;
}

RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster, unsigned threads) {
  return sweep_rho(corpus, cluster, {}, threads);
}

RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster,
                   const std::vector<double>& minrhos, unsigned threads,
                   RunSession* session, const SimulatorOptions* base_sim) {
  RhoSweep sweep;
  const auto points = rho_points(sweep, minrhos);
  score_rho(sweep, sweep_grid(corpus, cluster, points, threads, session,
                              base_sim)
                       .data());
  return sweep;
}

TunedParams tune(const std::vector<CorpusEntry>& corpus,
                 const Cluster& cluster, unsigned threads) {
  DeltaSweep ds;
  RhoSweep rs;
  std::vector<SchedulerOptions> points = delta_points(ds, {}, {});
  const std::size_t num_delta = points.size();
  for (const SchedulerOptions& point : rho_points(rs, {}))
    points.push_back(point);
  const std::vector<double> avg = sweep_grid(corpus, cluster, points, threads);
  score_delta(ds, avg.data());
  score_rho(rs, avg.data() + num_delta);
  return TunedParams{ds.best_mindelta, ds.best_maxdelta, rs.best_minrho};
}

}  // namespace rats
