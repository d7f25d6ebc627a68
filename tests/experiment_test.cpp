// Unit tests for the experiment harness: parallel execution, the run
// matrix's shared step one, shared simulations and parked repeats,
// relative series, pairwise comparison and degradation-from-best
// aggregations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "exp/experiment.hpp"
#include "exp/experiment_seam.hpp"
#include "exp/parallel.hpp"
#include "exp/presets.hpp"
#include "exp/tuning.hpp"
#include "obs/registry.hpp"
#include "platform/grid5000.hpp"
#include "platform/timeline.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace rats {
namespace {

// ------------------------------------------------------------ parallel

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(10, [](std::size_t i) {
        if (i == 3) throw Error("boom");
      }, 2),
      Error);
}

TEST(ParallelFor, ReusesThePersistentPool) {
  // Consecutive calls share one process-wide pool: the worker count
  // reaches the requested size once and stays there instead of
  // re-spawning per call.
  std::atomic<int> sink{0};
  parallel_for(64, [&](std::size_t) { ++sink; }, 3);
  const unsigned after_first = worker_pool_size();
  EXPECT_GE(after_first, 2u);  // 3 workers = caller + 2 pool threads
  for (int round = 0; round < 5; ++round)
    parallel_for(64, [&](std::size_t) { ++sink; }, 3);
  EXPECT_EQ(worker_pool_size(), after_first);
  EXPECT_EQ(sink.load(), 64 * 6);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A body that itself calls parallel_for must not deadlock on the
  // shared pool; the inner loop runs inline on the claiming worker.
  std::vector<std::atomic<int>> hits(100);
  parallel_for(10, [&](std::size_t outer) {
    parallel_for(10, [&](std::size_t inner) {
      ++hits[outer * 10 + inner];
    }, 4);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ------------------------------------------------- synthetic aggregation

ExperimentData synthetic() {
  // 4 entries x 3 algos with hand-picked makespans.
  ExperimentData d;
  d.cluster_name = "synthetic";
  d.algo_names = {"ref", "good", "bad"};
  d.families.assign(4, DagFamily::Layered);
  d.entry_names = {"e0", "e1", "e2", "e3"};
  const double mk[4][3] = {
      {10.0, 8.0, 12.0},
      {10.0, 10.0, 15.0},
      {10.0, 9.0, 10.0},
      {10.0, 12.0, 20.0},
  };
  for (int e = 0; e < 4; ++e) {
    std::vector<RunOutcome> row;
    for (int a = 0; a < 3; ++a)
      row.push_back(RunOutcome{mk[e][a], 100.0 + a});
    d.outcome.push_back(std::move(row));
  }
  return d;
}

TEST(Experiment, RelativeSeriesAgainstReference) {
  const auto d = synthetic();
  const auto rel = relative_series(d, 1, 0, true);
  EXPECT_EQ(rel.size(), 4u);
  EXPECT_DOUBLE_EQ(rel[0], 0.8);
  EXPECT_DOUBLE_EQ(rel[1], 1.0);
  EXPECT_DOUBLE_EQ(rel[3], 1.2);
}

TEST(Experiment, RelativeSeriesOnWork) {
  const auto d = synthetic();
  const auto rel = relative_series(d, 2, 0, false);
  for (double r : rel) EXPECT_DOUBLE_EQ(r, 102.0 / 100.0);
}

TEST(Experiment, SummarizeRelativeCountsFractions) {
  const auto d = synthetic();
  const auto s = summarize_relative(relative_series(d, 1, 0, true));
  EXPECT_NEAR(s.mean_ratio, (0.8 + 1.0 + 0.9 + 1.2) / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.fraction_better, 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_equal, 0.25);
}

TEST(Experiment, PairwiseCountsAreAntisymmetric) {
  const auto d = synthetic();
  const auto ab = pairwise_compare(d, 1, 2);
  const auto ba = pairwise_compare(d, 2, 1);
  EXPECT_EQ(ab.better, ba.worse);
  EXPECT_EQ(ab.worse, ba.better);
  EXPECT_EQ(ab.equal, ba.equal);
  EXPECT_EQ(ab.better + ab.equal + ab.worse, 4);
}

TEST(Experiment, PairwiseAgainstSynthetic) {
  const auto d = synthetic();
  const auto c = pairwise_compare(d, 1, 0);  // good vs ref
  EXPECT_EQ(c.better, 2);
  EXPECT_EQ(c.equal, 1);
  EXPECT_EQ(c.worse, 1);
}

TEST(Experiment, CombinedFractionsSumToOne) {
  const auto d = synthetic();
  for (std::size_t a = 0; a < 3; ++a) {
    const auto f = combined_compare(d, a);
    EXPECT_NEAR(f.better + f.equal + f.worse, 1.0, 1e-12);
  }
}

TEST(Experiment, DegradationFromBestSynthetic) {
  const auto d = synthetic();
  const auto deg = degradation_from_best(d, 0);  // "ref"
  // Per-entry bests: 8, 10, 9, 10.  ref degradations: 2/8, 0, 1/9, 0.
  EXPECT_EQ(deg.not_best, 2);
  EXPECT_NEAR(deg.avg_over_all, (0.25 + 0.0 + 1.0 / 9.0 + 0.0) / 4.0, 1e-12);
  EXPECT_NEAR(deg.avg_over_not_best, (0.25 + 1.0 / 9.0) / 2.0, 1e-12);
}

TEST(Experiment, BestAlgorithmHasZeroDegradation) {
  const auto d = synthetic();
  // Per entry the best algo has degradation 0; check algo 1 on entry 0.
  const auto deg = degradation_from_best(d, 1);
  EXPECT_EQ(deg.not_best, 1);  // only entry 3
  EXPECT_NEAR(deg.avg_over_not_best, 0.2, 1e-12);
}

TEST(Experiment, SortedCurveIsMonotone) {
  const auto curve = sorted_curve({5.0, 1.0, 3.0, 2.0, 4.0}, 11);
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_DOUBLE_EQ(curve.front(), 1.0);
  EXPECT_DOUBLE_EQ(curve.back(), 5.0);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i - 1], curve[i]);
}

TEST(Experiment, SortedCurveRejectsBadPointCount) {
  EXPECT_THROW(sorted_curve({1.0}, 1), Error);
}

TEST(Experiment, RejectsBadIndices) {
  const auto d = synthetic();
  EXPECT_THROW(relative_series(d, 7, 0, true), Error);
}

// ------------------------------------------------- small real experiment

TEST(Experiment, EndToEndOnTinyCorpus) {
  CorpusOptions o;
  o.random_samples = 1;
  o.kernel_samples = 1;
  const auto corpus = build_family(DagFamily::Strassen, o);
  ASSERT_EQ(corpus.size(), 1u);
  const std::vector<AlgoSpec> algos = {
      {"HCPA", SchedulerOptions{SchedulerKind::Hcpa, {}, true}},
      {"delta", SchedulerOptions{SchedulerKind::RatsDelta, {}, true}},
  };
  const auto data = run_experiment(corpus, grid5000::chti(), algos);
  EXPECT_EQ(data.entries(), 1u);
  EXPECT_EQ(data.algos(), 2u);
  for (const auto& row : data.outcome)
    for (const auto& out : row) {
      EXPECT_GT(out.makespan, 0.0);
      EXPECT_GT(out.work, 0.0);
    }
}

TEST(Tuning, ParameterListsMatchPaper) {
  EXPECT_EQ(tuning_mindeltas(), (std::vector<double>{0.0, -0.25, -0.5, -0.75}));
  EXPECT_EQ(tuning_maxdeltas(),
            (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
  EXPECT_EQ(tuning_minrhos(),
            (std::vector<double>{0.2, 0.4, 0.5, 0.6, 0.8, 1.0}));
}

// --------------------------------------- run matrix shared step one

/// Turns metrics on for the scope: the allocation counter is gated on
/// them.
struct MetricsOn {
  MetricsOn() : was(obs::metrics_enabled()) { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was); }
  bool was;
};

std::uint64_t allocations() {
  return obs::counter("sched/allocations").value();
}

/// One entry of each family: layered, irregular, FFT, Strassen.
std::vector<CorpusEntry> mixed_corpus() {
  presets::CorpusConfig cfg;
  cfg.samples_random = 1;
  cfg.samples_kernel = 1;
  return presets::cap_per_family(presets::make_corpus(cfg), cfg, 1);
}

/// All five schedulers: three allocation kinds (CPA, MCPA, HCPA).
std::vector<AlgoSpec> all_schedulers() {
  std::vector<AlgoSpec> algos;
  for (SchedulerKind kind :
       {SchedulerKind::Cpa, SchedulerKind::Mcpa, SchedulerKind::Hcpa,
        SchedulerKind::RatsDelta, SchedulerKind::RatsTimeCost}) {
    SchedulerOptions options;
    options.kind = kind;
    algos.push_back({to_string(kind), options});
  }
  return algos;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RunMatrix, SharedStepOneMatchesStandaloneRunsBitwise) {
  MetricsOn metrics;
  const auto corpus = mixed_corpus();
  ASSERT_EQ(corpus.size(), 4u);
  const Cluster cluster = grid5000::chti();
  const auto algos = all_schedulers();
  std::vector<std::vector<RunOutcome>> alone(corpus.size());
  for (std::size_t e = 0; e < corpus.size(); ++e)
    for (const AlgoSpec& algo : algos)
      alone[e].push_back(run_scenario(corpus[e].graph, cluster, algo.options));

  for (unsigned threads : {1u, 4u}) {
    const std::uint64_t before = allocations();
    const auto data = run_experiment(corpus, cluster, algos, threads);
    EXPECT_EQ(allocations() - before, corpus.size() * 3) << threads;
    for (std::size_t e = 0; e < corpus.size(); ++e)
      for (std::size_t a = 0; a < algos.size(); ++a) {
        const RunOutcome& out = data.outcome[e][a];
        EXPECT_TRUE(same_bits(out.makespan, alone[e][a].makespan) &&
                    same_bits(out.work, alone[e][a].work))
            << corpus[e].name << " / " << algos[a].name << " at " << threads
            << " threads";
      }
  }
}

/// Injects every run of the entries `injected` selects, the way the
/// serve plan, replay and other-shard passes do.
class InjectEntries final : public RunSession {
 public:
  InjectEntries(std::size_t algos, std::function<bool(std::size_t)> injected)
      : algos_(algos), injected_(std::move(injected)) {}
  bool inject(std::size_t run, const RunMeta&, RunOutcome& out) override {
    if (!injected_(run / algos_)) return false;
    out = RunOutcome{1.0, 2.0, {}};
    return true;
  }
  TraceSink* begin_run(std::size_t, const RunMeta&) override {
    ++simulated;
    return nullptr;
  }
  void end_run(std::size_t, const RunOutcome&) override {}

  std::atomic<std::size_t> simulated{0};

 private:
  std::size_t algos_;
  std::function<bool(std::size_t)> injected_;
};

TEST(RunMatrix, InjectedEntriesAreNeverAllocated) {
  MetricsOn metrics;
  const auto corpus = mixed_corpus();
  const auto algos = all_schedulers();
  const Cluster cluster = grid5000::chti();

  InjectEntries even(algos.size(), [](std::size_t e) { return e % 2 == 0; });
  std::uint64_t before = allocations();
  const auto data = run_experiment(corpus, cluster, algos, 4, &even);
  EXPECT_EQ(allocations() - before, (corpus.size() / 2) * 3);
  EXPECT_EQ(even.simulated.load(), (corpus.size() / 2) * algos.size());
  for (std::size_t e = 0; e < corpus.size(); e += 2)
    for (const RunOutcome& out : data.outcome[e])
      EXPECT_EQ(out.makespan, 1.0);

  InjectEntries all(algos.size(), [](std::size_t) { return true; });
  before = allocations();
  run_experiment(corpus, cluster, algos, 4, &all);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(all.simulated.load(), 0u);
}

TEST(RunMatrix, AllocationFailureRethrowsAndPoolStaysUsable) {
  auto corpus = mixed_corpus();
  corpus[1].graph = TaskGraph{};  // validate() throws inside allocate
  const auto algos = all_schedulers();
  const Cluster cluster = grid5000::chti();
  for (int call = 0; call < 2; ++call)
    EXPECT_THROW(run_experiment(corpus, cluster, algos, 4), Error);
  corpus.erase(corpus.begin() + 1);
  EXPECT_EQ(run_experiment(corpus, cluster, algos, 4).entries(), 3u);
}

// ------------------------------------- run matrix shared simulations

std::uint64_t simulations() {
  return obs::counter("sim/simulations").value();
}

/// The FFT corpus of fig4 at one kernel sample: 4 entries.
std::vector<CorpusEntry> fft_corpus() {
  presets::CorpusConfig cfg;
  cfg.samples_kernel = 1;
  return presets::make_family(DagFamily::FFT, cfg);
}

/// fig4's run matrix per entry: HCPA, then the 20-point delta grid.
std::vector<AlgoSpec> fig4_algos() {
  std::vector<AlgoSpec> algos{{"HCPA", SchedulerOptions{}}};
  for (double mindelta : tuning_mindeltas())
    for (double maxdelta : tuning_maxdeltas()) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsDelta;
      options.rats.mindelta = mindelta;
      options.rats.maxdelta = maxdelta;
      algos.push_back({"delta", options});
    }
  return algos;
}

/// Schedules every run and counts, per entry, the schedules that differ
/// in a field the simulator reads.
std::size_t distinct_schedules(const std::vector<CorpusEntry>& corpus,
                               const Cluster& cluster,
                               const std::vector<AlgoSpec>& algos) {
  const auto same = [](const Schedule& a, const Schedule& b) {
    if (a.placements.size() != b.placements.size()) return false;
    for (std::size_t t = 0; t < a.placements.size(); ++t) {
      const TaskPlacement& x = a.placements[t];
      const TaskPlacement& y = b.placements[t];
      if (x.procs != y.procs || x.est_start != y.est_start || x.seq != y.seq)
        return false;
    }
    return true;
  };
  std::size_t distinct = 0;
  for (const CorpusEntry& entry : corpus) {
    std::vector<Schedule> seen;
    for (const AlgoSpec& algo : algos) {
      Schedule s = build_schedule(entry.graph, cluster, algo.options);
      if (std::none_of(seen.begin(), seen.end(),
                       [&](const Schedule& o) { return same(o, s); }))
        seen.push_back(std::move(s));
    }
    distinct += seen.size();
  }
  return distinct;
}

bool same_outcome(const RunOutcome& a, const RunOutcome& b) {
  return same_bits(a.makespan, b.makespan) && same_bits(a.work, b.work) &&
         a.faults.tasks_killed == b.faults.tasks_killed &&
         a.faults.tasks_remapped == b.faults.tasks_remapped &&
         a.faults.redists_aborted == b.faults.redists_aborted &&
         same_bits(a.faults.capacity_seconds_lost,
                   b.faults.capacity_seconds_lost) &&
         same_bits(a.faults.node_seconds_down, b.faults.node_seconds_down);
}

TEST(RunMatrix, SharedSimulationsMatchStandaloneRunsBitwise) {
  MetricsOn metrics;
  const auto corpus = fft_corpus();
  ASSERT_EQ(corpus.size(), 4u);
  const Cluster cluster = grid5000::grillon();
  const auto algos = fig4_algos();
  const std::size_t distinct = distinct_schedules(corpus, cluster, algos);
  ASSERT_LT(distinct, corpus.size() * algos.size()) << "nothing to share";

  std::vector<std::vector<RunOutcome>> alone(corpus.size());
  for (std::size_t e = 0; e < corpus.size(); ++e)
    for (const AlgoSpec& algo : algos)
      alone[e].push_back(run_scenario(corpus[e].graph, cluster, algo.options));

  for (unsigned threads : {1u, 4u}) {
    const std::uint64_t before = simulations();
    const auto data = run_experiment(corpus, cluster, algos, threads);
    EXPECT_EQ(simulations() - before, distinct) << threads;
    for (std::size_t e = 0; e < corpus.size(); ++e)
      for (std::size_t a = 0; a < algos.size(); ++a)
        EXPECT_TRUE(same_outcome(data.outcome[e][a], alone[e][a]))
            << corpus[e].name << " / run " << a << " at " << threads
            << " threads";
  }
}

TEST(RunMatrix, TracedSharedRunsKeepTraceBytes) {
  MetricsOn metrics;
  // fig4 on the FFT corpus above: 4 entries x 21 runs.
  const scenario::ScenarioSpec spec = scenario::parse_scenario_string(
      "[scenario]\nname = \"fig4-k1\"\nkind = \"fig4\"\n"
      "[platform]\ncluster = \"grillon\"\n"
      "[workload]\nsource = \"family\"\nfamily = \"fft\"\n"
      "samples-kernel = 1\n",
      "<fig4-k1>");
  std::uint64_t before = simulations();
  (void)scenario::build_report(spec);
  const std::uint64_t untraced = simulations() - before;
  EXPECT_LT(untraced, 84u);

  before = simulations();
  const std::string one = scenario::render_trace(spec, 1);
  EXPECT_EQ(simulations() - before, untraced);
  before = simulations();
  const std::string four = scenario::render_trace(spec, 4);
  EXPECT_EQ(simulations() - before, untraced);

  EXPECT_EQ(one, four);
  const ReplayReport replay = verify_trace_text(four, "<fig4-k1>", 4);
  EXPECT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.runs, 84u);
}

TEST(RunMatrix, SimulationFailureRethrowsToEveryRepeat) {
  const auto corpus = fft_corpus();
  const Cluster cluster = grid5000::grillon();
  const auto algos = fig4_algos();
  // A node id past the cluster: simulate() rejects the timeline, so
  // every shared simulation stores its failure for the repeats.
  PlatformTimeline broken;
  broken.events.push_back(
      PlatformEvent{0.0, PlatformEventKind::NodeFail, cluster.num_nodes()});
  SimulatorOptions sim;
  sim.timeline = &broken;
  for (int call = 0; call < 2; ++call)
    EXPECT_THROW(run_experiment(corpus, cluster, algos, 4, nullptr, &sim),
                 Error);
  EXPECT_EQ(run_experiment(corpus, cluster, algos, 4).entries(), 4u);
}

// ---------------------------------------- run matrix parked repeats

std::uint64_t parked_runs() {
  return obs::counter("exp/parked_runs", obs::Stability::Volatile).value();
}

// State of hold_first_filler, set by HoldFirstFiller before a matrix.
std::atomic<bool> g_held{false};
std::atomic<std::size_t> g_held_run{0};
std::uint64_t g_parked_before = 0;
bool g_fail_held = false;

/// The seam hook: holds the matrix's first simulation filler until a
/// run has parked, then fails its simulation if asked to.  It gives up
/// after 10 s, so a run that never parks fails the test instead of
/// hanging it.
void hold_first_filler(std::size_t run) {
  if (g_held.exchange(true)) return;
  g_held_run = run;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked_runs() == g_parked_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (g_fail_held) throw Error("held filler fails");
}

/// Installs hold_first_filler for the scope.
struct HoldFirstFiller {
  explicit HoldFirstFiller(bool fail) {
    g_held = false;
    g_parked_before = parked_runs();
    g_fail_held = fail;
    detail::simulation_claimed = &hold_first_filler;
  }
  ~HoldFirstFiller() { detail::simulation_claimed = nullptr; }
};

/// Notes, per run, the thread that began it, the thread that ended it
/// and how often it ended; when traced, streams the matrix's trace.
class ThreadLog final : public RunSession {
 public:
  ThreadLog(std::size_t runs, bool traced)
      : began(runs), ended_on(runs), ends(runs) {
    if (traced) writer_.emplace(trace, "parked", "experiment", "spec");
  }
  void begin_matrix(std::size_t runs) override {
    if (writer_) writer_->begin_matrix(runs);
  }
  TraceSink* begin_run(std::size_t run, const RunMeta& meta) override {
    began[run] = std::this_thread::get_id();
    return writer_ ? writer_->begin_run(run, meta.entry, meta.algo,
                                        meta.cluster)
                   : nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    ended_on[run] = std::this_thread::get_id();
    ++ends[run];
    if (writer_) writer_->end_run(run, outcome.makespan);
  }
  void finish() {
    if (writer_) writer_->finish();
  }

  std::ostringstream trace;
  std::vector<std::thread::id> began, ended_on;
  std::vector<std::atomic<int>> ends;

 private:
  std::optional<TraceWriter> writer_;
};

/// Run `run`'s chunk of a trace, from its meta line to its end line.
std::string chunk_of(const std::string& trace, std::size_t run) {
  const std::string id = std::to_string(run) + ",";
  const std::size_t begin = trace.find("{\"run\":" + id);
  if (begin == std::string::npos) return {};
  const std::size_t end =
      trace.find('\n', trace.find("{\"run_end\":" + id, begin));
  if (end == std::string::npos) return {};
  return trace.substr(begin, end + 1 - begin);
}

/// fig4's run matrix with HCPA twice in front: in every entry, runs 0
/// and 1 simulate the same schedule.  At two threads the pool claims
/// them first, so the first filler of the matrix is one of the two and
/// the other parks on it.
std::vector<AlgoSpec> repeated_first_algos() {
  std::vector<AlgoSpec> algos = fig4_algos();
  algos.insert(algos.begin() + 1, algos.front());
  return algos;
}

TEST(RunMatrix, ParkedRepeatIsFinishedByTheFiller) {
  MetricsOn metrics;
  const auto corpus = fft_corpus();
  const Cluster cluster = grid5000::grillon();
  const auto algos = repeated_first_algos();
  const std::size_t runs = corpus.size() * algos.size();

  ThreadLog serial(runs, true);
  const ExperimentData want = run_experiment(corpus, cluster, algos, 1,
                                             &serial);
  serial.finish();
  ThreadLog pooled(runs, true);
  ExperimentData got;
  {
    HoldFirstFiller hold(false);
    got = run_experiment(corpus, cluster, algos, 2, &pooled);
  }
  pooled.finish();
  ASSERT_GT(parked_runs(), g_parked_before) << "nothing parked";
  const std::size_t held = g_held_run;
  ASSERT_LE(held, 1u);
  const std::size_t parked = 1 - held;

  EXPECT_NE(pooled.began[parked], pooled.began[held]);
  EXPECT_EQ(pooled.ended_on[parked], pooled.began[held])
      << "the parked run must end on its filler's thread";
  for (std::size_t j = 0; j < runs; ++j)
    EXPECT_EQ(pooled.ends[j].load(), 1) << "run " << j;
  for (std::size_t e = 0; e < corpus.size(); ++e)
    for (std::size_t a = 0; a < algos.size(); ++a)
      EXPECT_TRUE(same_outcome(got.outcome[e][a], want.outcome[e][a]))
          << corpus[e].name << " / run " << a;
  const std::string chunk = chunk_of(serial.trace.str(), parked);
  EXPECT_NE(chunk.find("task_start"), std::string::npos);
  EXPECT_EQ(chunk_of(pooled.trace.str(), parked), chunk);
  EXPECT_TRUE(pooled.trace.str() == serial.trace.str())
      << "the traces differ outside the parked run's chunk";
}

TEST(RunMatrix, FillerFailureDropsParkedRepeats) {
  MetricsOn metrics;
  const auto corpus = fft_corpus();
  const Cluster cluster = grid5000::grillon();
  const auto algos = repeated_first_algos();
  ThreadLog log(corpus.size() * algos.size(), false);
  {
    HoldFirstFiller hold(true);
    EXPECT_THROW(run_experiment(corpus, cluster, algos, 2, &log), Error);
  }
  ASSERT_GT(parked_runs(), g_parked_before) << "nothing parked";
  const std::size_t held = g_held_run;
  ASSERT_LE(held, 1u);
  EXPECT_EQ(log.ends[1 - held].load(), 0) << "the parked run ended";
  EXPECT_EQ(log.ends[held].load(), 0) << "the failed filler ended";

  const ExperimentData want = run_experiment(corpus, cluster, algos, 1);
  const ExperimentData got = run_experiment(corpus, cluster, algos, 2);
  for (std::size_t e = 0; e < corpus.size(); ++e)
    for (std::size_t a = 0; a < algos.size(); ++a)
      EXPECT_TRUE(same_outcome(got.outcome[e][a], want.outcome[e][a]))
          << corpus[e].name << " / run " << a;
}

}  // namespace
}  // namespace rats
