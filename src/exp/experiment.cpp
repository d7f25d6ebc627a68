#include "exp/experiment.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <limits>
#include <list>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "exp/experiment_seam.hpp"
#include "exp/parallel.hpp"
#include "obs/registry.hpp"
#include "trace/trace.hpp"

namespace rats {

namespace detail {
void (*simulation_claimed)(std::size_t run) = nullptr;
}  // namespace detail

namespace {

/// A value computed once, by the first caller.  A failure is stored and
/// rethrown to every caller, so no exception crosses call_once (which
/// hangs the waiting threads on libstdc++ targets whose pthread_once
/// cannot unwind, GCC bug 66146).
template <class T>
class Once {
 public:
  /// The value; the first call computes it with `fill`.
  template <class Fill>
  const T& get(Fill&& fill) {
    std::call_once(once_, [&] {
      try {
        value_ = fill();
      } catch (...) {
        failure_ = std::current_exception();
      }
    });
    if (failure_) std::rethrow_exception(failure_);
    return value_;
  }

 private:
  std::once_flag once_;
  T value_{};
  std::exception_ptr failure_;
};

/// Exact equality on the placement fields simulate() reads (procs,
/// est_start, seq): two schedules equal here simulate to the same bits.
bool same_simulation(const Schedule& a, const Schedule& b) {
  return std::equal(a.placements.begin(), a.placements.end(),
                    b.placements.begin(), b.placements.end(),
                    [](const TaskPlacement& x, const TaskPlacement& y) {
                      return x.seq == y.seq && x.est_start == y.est_start &&
                             x.procs == y.procs;
                    });
}

/// Runs that found their simulation still being filled.  Volatile: how
/// many park depends on thread timing.
obs::Counter& parked_runs() {
  static obs::Counter& c =
      obs::counter("exp/parked_runs", obs::Stability::Volatile);
  return c;
}

/// The shared work of a run matrix, one row per (cluster, entry): the
/// step-one allocation per allocation kind and the simulation per
/// distinct step-two schedule.  Within a row the graph, cluster and
/// simulator options are fixed, so each of them is computed once, by
/// the first run that reads it, and every later run of the row reuses
/// it.  A run whose schedule another thread is still simulating does
/// not wait for it: it parks on the simulation and its thread claims
/// the next run.  The filling thread finishes every parked run, then
/// its own, so the row outlives them; a parked run's sink writes and
/// RunSession::end_run therefore come from another thread than its
/// begin_run.  A row is freed when its last run ends; the pool claims
/// runs in index order, so only about `threads` rows are live at once.
class RunTable {
 public:
  /// What finishing a run takes: its index, its outcome slot and its
  /// trace sink (nullptr when untraced).
  struct Run {
    std::size_t index = 0;
    RunOutcome* out = nullptr;
    TraceSink* sink = nullptr;
  };

  RunTable(std::size_t rows, std::size_t runs_per_row, RunSession* session)
      : rows_(rows), session_(session) {
    for (auto& row : rows_) row = std::make_unique<Row>(runs_per_row);
    parked_runs();  // in every snapshot, 0 when nothing parked
  }

  const Allocation& allocation(std::size_t row, const TaskGraph& graph,
                               const Cluster& cluster, AllocationKind kind) {
    return rows_[row]->step_one[static_cast<std::size_t>(kind)].get(
        [&] { return allocate(graph, cluster, AllocationOptions{kind}); });
  }

  /// Simulates `schedule` for `run`, or takes the row's simulation of an
  /// equal schedule, and ends the run.  A repeat appends the events that
  /// simulation recorded to its sink.  If another thread is still
  /// simulating that schedule the run parks and this returns at once;
  /// that thread finishes it.  A failed simulation is rethrown to its
  /// filler and to every later repeat, and the runs parked on it are
  /// dropped.
  void simulate(std::size_t row, const TaskGraph& graph,
                const Cluster& cluster, Schedule schedule,
                const SimulatorOptions& sim, const Run& run) {
    Row& r = *rows_[row];
    Simulation* slot = nullptr;
    bool filler = false;
    {
      std::lock_guard<std::mutex> lock(r.mu);
      slot = &r.find_or_add(std::move(schedule));
      if (slot->state == State::Filling) {
        slot->parked.push_back(run);
        parked_runs().inc();
        return;
      }
      filler = slot->state == State::Empty;
      if (filler) slot->state = State::Filling;
    }
    if (filler)
      for (const Run& p : fill(r, *slot, graph, cluster, sim, run))
        finish(row, *slot, p, true);
    if (slot->failure) std::rethrow_exception(slot->failure);
    finish(row, *slot, run, !filler);
  }

  /// Ends one run of `row`, injected or not; the last one frees the row.
  void end_run(std::size_t row) {
    if (--rows_[row]->open_runs == 0) rows_[row].reset();
  }

 private:
  enum class State { Empty, Filling, Done };
  struct Simulation {
    Schedule schedule;
    // Guarded by the row mutex.
    State state = State::Empty;
    std::vector<Run> parked;  ///< repeats the filler finishes
    // Written by the filler before the state turns Done, then read-only.
    RunOutcome outcome;
    std::exception_ptr failure;
    bool traced = false;             ///< filled by a run with a sink
    std::vector<TraceEvent> events;  ///< what that sink recorded
  };
  struct Row {
    explicit Row(std::size_t runs) : open_runs(runs) {}

    /// The slot of `schedule`, added empty if new.  Call with `mu` held.
    Simulation& find_or_add(Schedule&& schedule) {
      for (Simulation& s : simulations)
        if (same_simulation(s.schedule, schedule)) return s;
      Simulation& added = simulations.emplace_back();
      added.schedule = std::move(schedule);
      return added;
    }

    std::array<Once<Allocation>, 3> step_one;  ///< per AllocationKind
    std::mutex mu;  ///< guards simulations and their states
    std::list<Simulation> simulations;
    std::atomic<std::size_t> open_runs;
  };

  /// Simulates `slot`'s schedule for `run` into the slot, marks it done
  /// and returns the runs that parked on it meanwhile (none if the
  /// simulation failed).
  static std::vector<Run> fill(Row& row, Simulation& slot,
                               const TaskGraph& graph, const Cluster& cluster,
                               const SimulatorOptions& sim, const Run& run) {
    TraceSink* const sink = run.sink;
    try {
      if (detail::simulation_claimed) detail::simulation_claimed(run.index);
      const std::size_t first = sink ? sink->size() : 0;
      slot.outcome = simulate_run(graph, slot.schedule, cluster, sim);
      if (sink) {
        slot.traced = true;
        slot.events.assign(
            sink->events().begin() + static_cast<std::ptrdiff_t>(first),
            sink->events().end());
      }
    } catch (...) {
      slot.failure = std::current_exception();
    }
    std::vector<Run> parked;
    std::lock_guard<std::mutex> lock(row.mu);
    slot.state = State::Done;
    if (!slot.failure) parked.swap(slot.parked);
    return parked;
  }

  /// Hands `slot`'s outcome to `run`, and to a repeat its trace events,
  /// then ends the run: the row (which may free `slot`), the run count
  /// and the session.
  void finish(std::size_t row, const Simulation& slot, const Run& run,
              bool repeat) {
    *run.out = slot.outcome;
    if (repeat && run.sink) {
      RATS_REQUIRE(slot.traced,
                   "a run matrix must trace all of its runs or none");
      run.sink->append(slot.events);
    }
    end_run(row);
    note_simulated_run();
    if (session_) session_->end_run(run.index, *run.out);
  }

  std::vector<std::unique_ptr<Row>> rows_;
  RunSession* session_;
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

  RunTable table(clusters.size() * corpus.size(), num_algos, session);
  const std::size_t per_cluster = corpus.size() * num_algos;
  if (session) session->begin_matrix(clusters.size() * per_cluster);
  parallel_for(clusters.size() * per_cluster, [&](std::size_t j) {
    const std::size_t c = j / per_cluster;
    const std::size_t e = (j % per_cluster) / num_algos;
    const std::size_t a = j % num_algos;
    const std::size_t row = j / num_algos;  // c * corpus.size() + e
    const std::vector<AlgoSpec>& algos = algos_for(c, e);
    RATS_REQUIRE(algos.size() == num_algos,
                 "algorithm list changed size across entries");
    const AlgoSpec& spec = algos[a];
    const TaskGraph& graph = corpus[e].graph;
    RunOutcome& out = results[c].outcome[e][a];
    const RunMeta meta{corpus[e].name, spec.name, clusters[c].name()};
    if (session && session->inject(j, meta, out)) {
      table.end_run(row);
      return;
    }
    SimulatorOptions sim = base_sim ? *base_sim : SimulatorOptions{};
    if (session) sim.trace = session->begin_run(j, meta);
    const Allocation& allocation = table.allocation(
        row, graph, clusters[c], allocation_kind(spec.options.kind));
    table.simulate(row, graph, clusters[c],
                   schedule_run(graph, clusters[c], allocation, spec.options),
                   sim, {j, &out, sim.trace});
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
