// perfbench — the end-to-end benchmark of RATS, with a traced per-layer
// split.  perfbench/run.py builds this binary and runs it from the root
// of a checkout:
//
//   perfbench --workload fig2_matrix|fig4_sweep|serve_open
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Batch workloads time scenario::build_report passes over a fixed run
// matrix; serve_open drives a `rats serve` daemon with an open-loop
// client.  Every output byte is checked (see the oracles below).  The
// last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer ones.  The lines before it are a
// human-readable summary stamped with host, nproc, build type and git
// describe.  The exit code is 0 only when every oracle held.
//
// Per-layer metrics come from a threads=1 build_report pass with the
// obs registry and span recording on: the layer times are the spans
// the library already opens around each run's steps, the counts are
// registry deltas.  The benchmark adds no instrumentation to the
// program.  A metric that a workload does not exercise (the serve
// layer on a batch workload, the thread pool on serve_open) reads 0.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "exp/parallel.hpp"
#include "exp/session.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/shard.hpp"
#include "stats.hpp"

namespace {

using rats::RunOutcome;
using rats::scenario::ScenarioSpec;

// ---- knobs ---------------------------------------------------------------

/// Set-up runs at least kSetupRepeats times and for at least
/// kSetupSeconds before the measurement, then kSetupRepeatsBetween more
/// times after every threads=1 pass (batch) or after the load phase
/// (serve).  setup_s is the fastest repeat: interference only adds
/// time, and repeats spread over the run catch its quiet moments.
constexpr int kSetupRepeats = 21;
constexpr double kSetupSeconds = 0.3;
constexpr int kSetupRepeatsBetween = 4;
/// Batch runs make at least kMinPasses threads=1 passes, each followed
/// by a pool pass, however short --seconds is.  Each run's time is its
/// fastest pass, so more passes steady the figures.
constexpr int kMinPasses = 3;
/// The speed probe that timed batch passes read between runs, on every
/// thread that runs them, once that thread's last reading is
/// kProbeEverySeconds old: std::sort of kProbeKeys fixed pseudo-random
/// 32-bit keys (64 KiB).  kProbeRefSeconds is its 10th-percentile time
/// in a quiet spell on a 4-vCPU Xeon virtual machine; batch figures are
/// reported at that speed, taking the run's kProbePercentile-th
/// percentile reading as the speed of its quiet moments.
constexpr double kProbeEverySeconds = 0.5;
constexpr std::size_t kProbeKeys = 16384;
constexpr double kProbeRefSeconds = 0.85e-3;
constexpr double kProbePercentile = 10;
/// Untraced and traced per-layer passes, alternating; the tracing
/// overhead compares the fastest of each.
constexpr int kLayerRepeats = 2;
/// serve_open: evenly spaced arrivals per second, and status poll
/// interval — well under the ~40 ms a job takes.
constexpr double kJobsPerSecond = 10.0;
constexpr double kPollSeconds = 0.001;
/// Jobs that open the serve_open stream untimed (fresh workers warm up).
constexpr std::size_t kWarmupJobs = 20;
/// Timed jobs are grouped by arrival into windows of kWindowJobs (1 s);
/// the latency percentiles use the quieter half of the windows, ranked
/// by the hypervisor steal across each.  On a 4-vCPU virtual machine
/// steal came in bursts (0 to 5% per window), and a 4% window slowed
/// its jobs by 10-20%.
constexpr std::size_t kWindowJobs = 10;
/// Served reports the recorded serve_open digest covers.
constexpr std::size_t kDigestJobs = 100;
/// Jobs whose specs serve_open's per-layer passes run (600 runs).
constexpr std::size_t kLayerJobs = 50;
constexpr std::uint64_t kDefaultSeed = 42;

// ---- small helpers -------------------------------------------------------

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time of the calling thread.  Single-thread work is taken in CPU
/// time: on an idle core it equals wall time, and it leaves out time
/// the hypervisor gives to co-tenants (steal), which moved wall-clock
/// passes on a 4-vCPU virtual machine by up to 10% between runs.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double least(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

/// A reading of the machine-wide CPU tick counters (/proc/stat).
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  CpuTicks t;
  t.steal = v[7];
  for (std::uint64_t x : v) t.total += x;
  return t;
}

/// Share of CPU time the hypervisor gave to other guests ("steal")
/// between two readings.
double steal_frac(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total
             ? static_cast<double>(to.steal - from.steal) /
                   static_cast<double>(to.total - from.total)
             : 0.0;
}

std::string percent(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100 * frac);
  return buf;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The worker count of the pool passes and of the daemon.
unsigned half_nproc() { return std::max(1u, nproc() / 2); }

std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw rats::Error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool same_outcome(const RunOutcome& a, const RunOutcome& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return bits(a.makespan) == bits(b.makespan) && bits(a.work) == bits(b.work) &&
         a.faults.tasks_killed == b.faults.tasks_killed &&
         a.faults.tasks_remapped == b.faults.tasks_remapped &&
         a.faults.redists_aborted == b.faults.redists_aborted &&
         bits(a.faults.capacity_seconds_lost) ==
             bits(b.faults.capacity_seconds_lost) &&
         bits(a.faults.node_seconds_down) == bits(b.faults.node_seconds_down);
}

/// Reads how fast the machine runs right now, from a fixed probe that
/// is part of the benchmark, not of the program.  Co-tenants on the
/// host slow the program for seconds to minutes at a time, often for a
/// whole run, and each run's fastest pass then describes only the
/// quiet moments that run happened to have.  The probe says how quiet
/// they were: batch figures are divided by the run's low-percentile
/// reading, which puts them at the probe's reference speed, while a
/// change to the program still moves them in full.  A sort is branchy,
/// cache-resident work like the program's: on a 4-vCPU virtual machine
/// with busy co-tenants, the log of a pass's time moved 0.9-1.1 times
/// as much as the log of the sorts' times during it (correlation
/// 0.82-0.84), but 1.9-2.4 times as much as a chain of multiply-adds
/// and 1.0-1.5 times as much as an L2-resident pointer chase, which
/// under-read the slowdown.  Over 30 s
/// windows of back-to-back threads=1 passes, dividing by the window's
/// 10th-percentile reading cut the quartile spread of runs_per_s from
/// 0.12 to 0.01 of its median (fig4) and from 0.15 to 0.06 (fig2) while
/// co-tenants were busy, and from 0.02 to 0.01 (fig4) while they were
/// quiet.
class SpeedProbe {
 public:
  SpeedProbe() : keys_(kProbeKeys) {
    std::uint64_t state = 1;
    for (std::uint32_t& k : keys_)
      k = static_cast<std::uint32_t>(splitmix64(state++));
  }

  /// The calling thread's slowdown against the reference speed
  /// (1 = reference).  Safe to call from several threads at once.
  double slowdown() const {
    std::vector<std::uint32_t> v = keys_;
    const double c0 = thread_cpu_s();
    std::sort(v.begin(), v.end());
    const double c1 = thread_cpu_s();
    volatile std::uint32_t sink = v[v.size() / 2];
    (void)sink;
    return (c1 - c0) / kProbeRefSeconds;
  }

 private:
  std::vector<std::uint32_t> keys_;
};

/// One thread's probe readings, a new one whenever the last is
/// kProbeEverySeconds old.
class ProbeReadings {
 public:
  explicit ProbeReadings(const SpeedProbe& probe) : probe_(&probe) {}

  /// Reads the probe if a reading is due.  Call from the owning thread.
  void poll() {
    if (now_s() - probed_at_ < kProbeEverySeconds) return;
    const double c0 = thread_cpu_s();
    all_.push_back(probe_->slowdown());
    cpu_s_ += thread_cpu_s() - c0;
    probed_at_ = now_s();
  }
  double cpu_s() const { return cpu_s_; }  ///< spent reading
  const std::vector<double>& all() const { return all_; }

 private:
  const SpeedProbe* probe_;
  double probed_at_ = -std::numeric_limits<double>::infinity();
  double cpu_s_ = 0;
  std::vector<double> all_;
};

/// CPU time of the reaped descendants (the serve daemon and workers).
double children_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the run measured and whether every oracle held.
struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   ///< summary lines (stdout)
  std::vector<std::string> errors;  ///< oracle failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void error(const std::string& what) { errors.push_back(what); }
  /// Counts `count` attempted operations of which `bad` failed.
  void tally(std::uint64_t count, std::uint64_t bad) {
    attempted += count;
    failed += bad;
  }
};

/// A percentile the run must be able to report; a refusal is an error.
double required_percentile(Result& r, const std::vector<double>& v, double p,
                           const std::string& what) {
  const std::optional<double> q = perfbench::percentile(v, p);
  if (!q) {
    r.error(what + ": too few samples for p" + std::to_string(int(p)) +
            " (" + std::to_string(v.size()) + ")");
    return 0;
  }
  return *q;
}

// ---- run sessions --------------------------------------------------------

/// Observes one build_report pass: per-run begin/end stamps with the
/// worker that ran it, each run's thread CPU time, its outcome (for the
/// bit-for-bit oracles) and its identity.  Given a speed probe, each
/// worker polls its ProbeReadings before a run's stamps.
class PassSession final : public rats::RunSession {
 public:
  explicit PassSession(const SpeedProbe* probe = nullptr) : probe_(probe) {}

  void begin_matrix(std::size_t runs) override {
    stamps.assign(runs, {});
    run_cpu_ms.assign(runs, 0);
    outcomes.assign(runs, {});
    metas.assign(runs, {});
  }
  rats::TraceSink* begin_run(std::size_t run, const rats::RunMeta& meta)
      override {
    if (run >= stamps.size()) {
      bad_index = true;
      return nullptr;
    }
    Worker& w = worker();
    if (w.readings) w.readings->poll();
    stamps[run].worker = w.id;
    metas[run] = meta;
    run_cpu_ms[run] = thread_cpu_s();
    stamps[run].begin = now_s();
    return nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    if (run >= stamps.size()) {
      bad_index = true;
      return;
    }
    stamps[run].end = now_s();
    run_cpu_ms[run] = (thread_cpu_s() - run_cpu_ms[run]) * 1e3;
    outcomes[run] = outcome;
  }

  /// CPU time the workers spent reading the probe (call after the pass).
  double probe_cpu_s() const {
    double total = 0;
    for (const Worker& w : workers_)
      if (w.readings) total += w.readings->cpu_s();
    return total;
  }
  /// Every probe reading of the pass (call after the pass).
  std::vector<double> readings() const {
    std::vector<double> all;
    for (const Worker& w : workers_)
      if (w.readings)
        all.insert(all.end(), w.readings->all().begin(),
                   w.readings->all().end());
    return all;
  }

  std::vector<perfbench::Stamp> stamps;  ///< wall clock
  std::vector<double> run_cpu_ms;        ///< each run's thread CPU time
  std::vector<RunOutcome> outcomes;
  std::vector<rats::RunMeta> metas;
  std::atomic<bool> bad_index{false};

 private:
  struct Worker {
    std::thread::id thread;
    int id = 0;
    std::optional<ProbeReadings> readings;
  };

  /// The calling thread's record; it stays in place while others are
  /// added (std::deque), so the thread uses it without the lock.
  Worker& worker() {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id me = std::this_thread::get_id();
    for (Worker& w : workers_)
      if (w.thread == me) return w;
    Worker& w = workers_.emplace_back();
    w.thread = me;
    w.id = static_cast<int>(workers_.size() - 1);
    if (probe_ != nullptr) w.readings.emplace(*probe_);
    return w;
  }

  const SpeedProbe* probe_;
  std::mutex mu_;  ///< guards workers_
  std::deque<Worker> workers_;
};

/// Counts runs of `got` whose outcome differs from `want` bit for bit
/// (a missing run counts as different).
std::uint64_t outcome_mismatches(const std::vector<RunOutcome>& want,
                                 const std::vector<RunOutcome>& got) {
  std::uint64_t bad = want.size() > got.size() ? want.size() - got.size() : 0;
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i)
    if (!same_outcome(want[i], got[i])) ++bad;
  return bad;
}

// ---- the per-layer passes ------------------------------------------------

/// Count and summed duration of the spans of one name.
struct SpanSum {
  std::uint64_t count = 0;
  double seconds = 0;
};

using SpanSums = std::map<std::string, SpanSum, std::less<>>;

/// Sums span durations by name from an obs::spans_json() document: one
/// event per line, each thread's events contiguous and nested.
SpanSums span_sums(std::string_view json) {
  const auto field = [](std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos) return std::string_view{};
    line.remove_prefix(at + key.size());
    return line.substr(0, line.find_first_of("\",}"));
  };
  SpanSums sums;
  std::vector<std::pair<std::string_view, double>> open;
  std::string_view thread;
  for (std::size_t pos = 0; pos < json.size();) {
    const std::size_t eol = std::min(json.find('\n', pos), json.size());
    const std::string_view line = json.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string_view ph = field(line, "\"ph\":\"");
    if (ph.empty()) continue;
    if (const std::string_view tid = field(line, "\"tid\":"); tid != thread) {
      open.clear();
      thread = tid;
    }
    const double ts =
        std::strtod(std::string(field(line, "\"ts\":")).c_str(), nullptr) /
        1e6;  // microseconds
    if (ph == "B") {
      const std::string_view name = field(line, "\"name\":\"");
      open.emplace_back(name, ts);
      auto it = sums.find(name);
      if (it == sums.end()) it = sums.emplace(std::string(name), SpanSum{}).first;
      ++it->second.count;
    } else if (!open.empty()) {
      sums.find(open.back().first)->second.seconds += ts - open.back().second;
      open.pop_back();
    }
  }
  return sums;
}

/// The allocation step behind an algorithm's display name: CPA and MCPA
/// allocate their own way; HCPA, both RATS mappings and the points of a
/// delta sweep all reuse HCPA's step one.
std::string allocation_of(const std::string& algo) {
  return algo == "CPA" || algo == "MCPA" ? algo : "HCPA";
}

std::uint64_t counter_of(const rats::obs::Snapshot& s, const std::string& n) {
  for (const auto& v : s.counters)
    if (v.name == n) return v.value;
  for (const auto& v : s.volatile_counters)
    if (v.name == n) return v.value;
  return 0;
}

std::uint64_t timer_ns_of(const rats::obs::Snapshot& s, const std::string& n) {
  for (const auto& t : s.timers)
    if (t.name == n) return t.ns;
  return 0;
}

std::vector<std::uint64_t> histogram_of(const rats::obs::Snapshot& s,
                                        const std::string& n) {
  for (const auto& h : s.histograms)
    if (h.name == n) return h.buckets;
  return {};
}

/// One threads=1 build_report pass over some specs, on a fresh thread.
struct LayerPass {
  double wall_s = 0;  ///< the build_report calls
  std::vector<double> run_cpu_ms;  ///< every run's thread CPU, specs in order
  std::vector<std::vector<RunOutcome>> outcomes;  ///< per spec
  std::uint64_t allocate_distinct = 0;  ///< (entry, allocation step) pairs
  // Traced passes only: span sums and obs registry deltas.
  SpanSums spans;
  std::uint64_t warm = 0, cold = 0, general = 0;
  double warm_s = 0, cold_s = 0;
  std::uint64_t settles_cone = 0, settles_kept = 0, deep_cone = 0;
  std::uint64_t tasks = 0, redists = 0, plan_hits = 0, plan_lookups = 0;

  SpanSum span(std::string_view name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanSum{} : it->second;
  }
  /// The counts every traced pass over the same specs repeats exactly.
  std::vector<std::uint64_t> counts() const {
    return {span("schedule/allocate").count, span("schedule/map").count,
            span("simulate").count, warm, cold, general, settles_cone,
            settles_kept, deep_cone, tasks, redists, plan_hits,
            plan_lookups};
  }
};

/// Runs `specs` through build_report at threads=1 on one fresh thread,
/// so the thread-local planner caches start empty and every count
/// repeats exactly.  With `traced`, the obs registry and span recording
/// are on for the pass: the layer times are the spans the library opens
/// around each run's steps (schedule/allocate, schedule/map, simulate),
/// the counts are registry deltas.
LayerPass layer_pass(const std::vector<ScenarioSpec>& specs, bool traced) {
  namespace obs = rats::obs;
  LayerPass p;
  std::vector<std::vector<rats::RunMeta>> metas;
  const obs::Snapshot before = obs::snapshot();
  if (traced) {
    obs::clear_spans();
    obs::set_metrics_enabled(true);
    obs::set_profiling_enabled(true);
  }
  std::exception_ptr failure;
  std::thread worker([&] {
    try {
      for (ScenarioSpec spec : specs) {
        spec.threads = 1;
        PassSession session;
        const double w0 = now_s();
        rats::scenario::build_report(spec, &session);
        p.wall_s += now_s() - w0;
        p.run_cpu_ms.insert(p.run_cpu_ms.end(), session.run_cpu_ms.begin(),
                            session.run_cpu_ms.end());
        p.outcomes.push_back(std::move(session.outcomes));
        metas.push_back(std::move(session.metas));
      }
    } catch (...) {
      failure = std::current_exception();
    }
  });
  worker.join();
  obs::set_profiling_enabled(false);
  obs::set_metrics_enabled(false);
  if (failure) std::rethrow_exception(failure);
  for (const auto& spec_metas : metas) {
    std::set<std::pair<std::string, std::string>> distinct;
    for (const rats::RunMeta& m : spec_metas)
      distinct.emplace(m.entry, allocation_of(m.algo));
    p.allocate_distinct += distinct.size();
  }
  if (!traced) return p;

  p.spans = span_sums(obs::spans_json());
  obs::clear_spans();
  const obs::Snapshot after = obs::snapshot();
  const auto d = [&](const char* n) {
    return counter_of(after, n) - counter_of(before, n);
  };
  const auto dt = [&](const char* n) {
    return static_cast<double>(timer_ns_of(after, n) - timer_ns_of(before, n)) /
           1e9;
  };
  p.warm = d("net/solve/warm");
  p.general = d("net/solve/general");
  p.cold = d("net/solve/bipartite") + p.general;
  p.warm_s = dt("net/solve/warm_time");
  p.cold_s = dt("net/solve/cold_time");
  p.settles_cone = d("net/warm/settles_cone");
  p.settles_kept = d("net/warm/settles_kept");
  const auto hb = histogram_of(before, "net/warm/cone_fraction");
  const auto ha = histogram_of(after, "net/warm/cone_fraction");
  if (!ha.empty())  // the top decile: more than 90% of the undo in-cone
    p.deep_cone = ha.back() - (hb.size() == ha.size() ? hb.back() : 0);
  p.tasks = d("sim/tasks_executed");
  p.redists = d("sim/redists_completed");
  p.plan_hits = d("redist/plan/sim_hits");
  p.plan_lookups = p.plan_hits + d("redist/plan/sim_misses");
  return p;
}

/// Checks a layer pass's outcomes against `want` bit for bit.
void check_outcomes(Result& r, const std::string& what,
                    const std::vector<std::vector<RunOutcome>>& want,
                    const LayerPass& p) {
  std::uint64_t runs = 0, bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    runs += want[i].size();
    bad += i < p.outcomes.size() ? outcome_mismatches(want[i], p.outcomes[i])
                                 : want[i].size();
  }
  if (bad)
    r.error(what + ": " + std::to_string(bad) + " run outcomes differ");
  r.tally(runs, bad);
}

/// Sum of each run's fastest sample (see perfbench::fastest).
double fastest_total(const std::vector<std::vector<double>>& samples) {
  double total = 0;
  for (const double v : perfbench::fastest(samples)) total += v;
  return total;
}

/// Adds one sample per run from `run_ms` to `samples`.
void add_samples(std::vector<std::vector<double>>& samples,
                 const std::vector<double>& run_ms) {
  samples.resize(std::max(samples.size(), run_ms.size()));
  for (std::size_t j = 0; j < run_ms.size(); ++j)
    samples[j].push_back(run_ms[j]);
}

/// The per-layer passes: kLayerRepeats untraced and traced passes over
/// `specs`, alternating, each checked against `want`; the traced ones
/// must repeat every count exactly.  Adds the layer metrics of the first
/// traced pass, the tracing overhead (each run's fastest traced CPU time
/// against its fastest untraced one, summed over the runs) and the
/// layers' cover of the traced pass.
void measure_layers(Result& r, const std::vector<ScenarioSpec>& specs,
                    const std::vector<std::vector<RunOutcome>>& want) {
  std::vector<std::vector<double>> plain_ms, traced_ms;
  std::vector<LayerPass> traced;
  for (int k = 0; k < kLayerRepeats; ++k) {
    const LayerPass plain = layer_pass(specs, false);
    check_outcomes(r, "untraced layer pass", want, plain);
    add_samples(plain_ms, plain.run_cpu_ms);
    traced.push_back(layer_pass(specs, true));
    check_outcomes(r, "traced layer pass", want, traced.back());
    add_samples(traced_ms, traced.back().run_cpu_ms);
    if (traced.back().counts() != traced.front().counts())
      r.error("traced counts did not repeat exactly");
  }

  const LayerPass& t = traced.front();
  const SpanSum alloc = t.span("schedule/allocate");
  const SpanSum map = t.span("schedule/map");
  const SpanSum sim = t.span("simulate");
  const auto frac = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  r.add("sched.allocate_s", alloc.seconds, "s");
  r.add("sched.allocate_calls", count(alloc.count), "count");
  r.add("sched.allocate_distinct", count(t.allocate_distinct), "count");
  r.add("sched.map_s", map.seconds, "s");
  r.add("sched.map_calls", count(map.count), "count");
  r.add("sim.simulate_s", sim.seconds, "s");
  r.add("sim.loop_s", sim.seconds - t.warm_s - t.cold_s, "s");
  r.add("sim.tasks_executed", count(t.tasks), "count");
  r.add("sim.redists_completed", count(t.redists), "count");
  r.add("net.warm_s", t.warm_s, "s");
  r.add("net.warm_calls", count(t.warm), "count");
  r.add("net.cold_s", t.cold_s, "s");
  r.add("net.cold_calls", count(t.cold), "count");
  r.add("net.general_calls", count(t.general), "count");
  r.add("net.cone_frac",
        frac(count(t.settles_cone), count(t.settles_cone + t.settles_kept)),
        "fraction");
  r.add("net.deep_cone_frac", frac(count(t.deep_cone), count(t.warm)),
        "fraction");
  r.add("redist.plan_lookups", count(t.plan_lookups), "count");
  r.add("redist.plan_hit_frac",
        frac(count(t.plan_hits), count(t.plan_lookups)), "fraction");
  r.add("bench.trace_overhead_frac",
        fastest_total(traced_ms) / fastest_total(plain_ms) - 1, "fraction");
  r.add("bench.layer_cover_frac",
        frac(alloc.seconds + map.seconds + sim.seconds, t.wall_s), "fraction");
}

const char* const kServeLayerMetrics[][2] = {
    {"serve.submit_p50_ms", "ms"},    {"serve.queue_p90_ms", "ms"},
    {"serve.exec_p50_ms", "ms"},      {"serve.fetch_p50_ms", "ms"},
    {"serve.plan_p50_ms", "ms"},      {"serve.shard_run_p50_ms", "ms"},
    {"serve.merge_p50_ms", "ms"},     {"serve.shards_dispatched", "count"},
    {"serve.shards_retried", "count"}, {"serve.jobs_rejected", "count"},
    {"serve.worker_restarts", "count"}, {"loadgen.late_p90_ms", "ms"},
};

// ---- recorded digests ----------------------------------------------------

/// Checks the default seed's report digest against perfbench/digests.txt
/// ("<workload> <seed> <fnv1a-64 hex>" lines).  Other seeds have no
/// recorded digest; their reports are checked by the other oracles.
void check_digest(Result& r, const std::string& workload, std::uint64_t seed,
                  std::uint64_t digest) {
  r.notes.push_back("digest " + workload + " " + std::to_string(seed) + " " +
                    hex64(digest));
  if (seed != kDefaultSeed) return;
  std::istringstream lines(read_file("perfbench/digests.txt"));
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream f(line);
    std::string w, hex;
    std::uint64_t s = 0;
    if (line.empty() || line[0] == '#' || !(f >> w >> s >> hex)) continue;
    if (w == workload && s == seed) {
      if (hex != hex64(digest))
        r.error("report digest " + hex64(digest) + " != recorded " + hex);
      return;
    }
  }
  r.error("no recorded digest for " + workload + " seed " +
          std::to_string(seed));
}

// ---- batch workloads -----------------------------------------------------

/// The reference matrices, as checked in (corpus seed 42).  Their cost
/// moves by up to 30% with the corpus seed (fig2 at 2 threads: 4.2 to
/// 5.5 s over eight seeds), more than any regression bound could
/// absorb, so batch timing always uses these inputs; the workload seed
/// drives the untimed seeded_oracle below.
ScenarioSpec batch_spec(const std::string& workload) {
  if (workload == "fig2_matrix") {
    ScenarioSpec s = rats::scenario::load_scenario("scenarios/fig2.rats");
    s.workload.corpus.samples_kernel = 2;
    return s;
  }
  return rats::scenario::load_scenario("scenarios/fig4.rats");
}

struct Pass {
  double seconds = 0;      ///< wall
  double cpu_seconds = 0;  ///< the calling thread's (all of it at threads=1)
  std::string bytes;
};

Pass run_pass(ScenarioSpec spec, unsigned threads, PassSession* session) {
  spec.threads = threads;
  const double c0 = thread_cpu_s();
  const double t0 = now_s();
  const rats::report::ReportModel model =
      rats::scenario::build_report(spec, session);
  const double t1 = now_s();
  const double c1 = thread_cpu_s();
  return Pass{t1 - t0, c1 - c0, rats::report::render_json(model)};
}

/// Repeated set-ups of a batch workload: spec parse plus corpus
/// generation.  Each figure is the fastest repeat.
class BatchSetup {
 public:
  explicit BatchSetup(const ScenarioSpec& spec)
      : text_(rats::scenario::emit_scenario(spec)) {
    for (const double start = now_s();
         total_.size() < kSetupRepeats || now_s() - start < kSetupSeconds;)
      sample(1);
  }

  void sample(int repeats) {
    for (int i = 0; i < repeats; ++i) {
      const double t0 = now_s();
      const ScenarioSpec parsed = rats::scenario::parse_scenario_string(text_);
      const double t1 = now_s();
      const auto entries = parsed.workload.resolve();
      const double t2 = now_s();
      total_.push_back(t2 - t0);
      parse_ms_.push_back((t1 - t0) * 1e3);
      corpus_ms_.push_back((t2 - t1) * 1e3);
      tasks_ = 0;
      for (const auto& e : entries)
        tasks_ += static_cast<std::uint64_t>(e.graph.num_tasks());
    }
  }

  double setup_s() const { return least(total_); }
  double parse_ms() const { return least(parse_ms_); }
  double corpus_ms() const { return least(corpus_ms_); }
  std::uint64_t tasks() const { return tasks_; }

 private:
  std::string text_;
  std::vector<double> total_, parse_ms_, corpus_ms_;
  std::uint64_t tasks_ = 0;
};

/// Checks a pass against the reference bytes and outcomes; returns the
/// number of failed runs (all of them when the bytes differ).
std::uint64_t check_pass(Result& r, const std::string& what, const Pass& p,
                         const PassSession& session, const Pass& ref,
                         const std::vector<RunOutcome>& want) {
  std::uint64_t bad = session.bad_index
                          ? want.size()
                          : outcome_mismatches(want, session.outcomes);
  if (p.bytes != ref.bytes) {
    r.error(what + ": report bytes differ from the reference pass");
    bad = want.size();
  } else if (bad) {
    r.error(what + ": " + std::to_string(bad) + " run outcomes differ");
  }
  r.tally(want.size(), bad);
  return bad;
}

/// The workload seed's own inputs, untimed: the same kind on a corpus
/// drawn with the seed (two entries per family) must render the same
/// bytes at threads=1 and at nproc/2, and a traced pass must reproduce
/// its outcomes bit for bit.
void seeded_oracle(Result& r, ScenarioSpec spec, std::uint64_t seed) {
  spec.workload.corpus.seed = seed;
  spec.workload.cap_per_family = 2;
  PassSession one;
  const Pass serial = run_pass(spec, 1, &one);
  PassSession many;
  const Pass pool = run_pass(spec, half_nproc(), &many);
  check_pass(r, "seeded corpus pass", pool, many, serial, one.outcomes);
  check_outcomes(r, "seeded corpus traced pass", {one.outcomes},
                 layer_pass({spec}, true));
}

/// The timed passes (--trace 0): threads=1 passes until `seconds` have
/// passed, at least kMinPasses, each followed by set-up repeats and a
/// pool pass, all of them reading the speed probe between runs.  Every
/// figure describes a pass at the probe's reference speed, each run at
/// its fastest pass.
void time_batch(Result& r, const ScenarioSpec& spec, BatchSetup& setup,
                const Pass& ref, const std::vector<RunOutcome>& want,
                double seconds) {
  const unsigned mt = half_nproc();
  const SpeedProbe probe;
  std::vector<std::vector<double>> run_cpu_ms, pool_run_ms;
  std::vector<double> outside_s, pool_busy, readings;
  const CpuTicks ticks = cpu_ticks();
  const double t0 = now_s();
  int passes = 0;
  for (; passes < kMinPasses || now_s() - t0 < seconds; ++passes) {
    PassSession s(&probe);
    const Pass p1 = run_pass(spec, 1, &s);
    check_pass(r, "threads=1 pass", p1, s, ref, want);
    add_samples(run_cpu_ms, s.run_cpu_ms);
    outside_s.push_back(
        p1.cpu_seconds - s.probe_cpu_s() -
        std::accumulate(s.run_cpu_ms.begin(), s.run_cpu_ms.end(), 0.0) / 1e3);
    for (const double v : s.readings()) readings.push_back(v);
    setup.sample(kSetupRepeatsBetween);
    PassSession m(&probe);
    const Pass pn = run_pass(spec, mt, &m);
    check_pass(r, "threads=" + std::to_string(mt) + " pass", pn, m, ref, want);
    std::vector<double> wall_ms;
    for (const perfbench::Stamp& st : m.stamps)
      wall_ms.push_back((st.end - st.begin) * 1e3);
    add_samples(pool_run_ms, wall_ms);
    pool_busy.push_back(std::accumulate(wall_ms.begin(), wall_ms.end(), 0.0) /
                        1e3 / (mt * pn.seconds));
    for (const double v : m.readings()) readings.push_back(v);
  }
  // The speed of the run's quiet moments, which its fastest passes saw.
  const double slowdown =
      required_percentile(r, readings, kProbePercentile, "probe readings");
  const double runs = static_cast<double>(want.size());
  // threads=1: the runs in CPU time, plus the median time build_report
  // spends outside them.
  const double serial_s =
      fastest_total(run_cpu_ms) / 1e3 + perfbench::median(outside_s);
  // threads=nproc/2: the runs in wall time, spread over the workers as
  // busily as the median pool pass kept them.
  const double pool_s = fastest_total(pool_run_ms) / 1e3 /
                        (mt * perfbench::median(pool_busy));
  r.notes.push_back(std::to_string(passes) + " threads=1 passes, " +
                    std::to_string(pool_busy.size()) + " threads=" +
                    std::to_string(mt) + " passes, steal " +
                    percent(steal_frac(ticks, cpu_ticks())));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "probe slowdown p%g %.3f, median %.3f (%zu readings); as "
                "measured setup_s %.4g, runs_per_s %.2f, runs_per_s_mt %.2f",
                kProbePercentile, slowdown, perfbench::median(readings),
                readings.size(), setup.setup_s(), runs / serial_s,
                runs / pool_s);
  r.notes.push_back(buf);
  // Run latency as band percentiles: the matrix mixes size groups, and
  // fig2's p90 sits at a 4 ms gap between two of them.
  const std::vector<double> run_ms = perfbench::fastest(run_cpu_ms);
  const auto run_latency = [&](double p) {
    const std::optional<double> q = perfbench::band_percentile(run_ms, p);
    if (!q) r.error("run latency: too few runs for p" + std::to_string(int(p)));
    return q.value_or(0) / slowdown;
  };
  r.add("setup_s", setup.setup_s() / slowdown, "s");
  r.add("runs_per_s", runs / serial_s * slowdown, "1/s");
  r.add("runs_per_s_mt", runs / pool_s * slowdown, "1/s");
  r.add("job_p50_ms", run_latency(50), "ms");
  r.add("job_p90_ms", run_latency(90), "ms");
  r.add("peak_rss_mb", peak_rss_mb(RUSAGE_SELF), "MiB");
}

/// The traced run (--trace 1): the per-layer passes, then a pool pass
/// for the pool metrics.
void trace_batch(Result& r, const ScenarioSpec& spec, const BatchSetup& setup,
                 const Pass& ref, const std::vector<RunOutcome>& want) {
  const unsigned mt = half_nproc();
  measure_layers(r, {spec}, {want});
  PassSession m;
  const Pass pn = run_pass(spec, mt, &m);
  check_pass(r, "traced pool pass", pn, m, ref, want);
  double first = std::numeric_limits<double>::infinity(), last = 0;
  for (const auto& s : m.stamps) {
    first = std::min(first, s.begin);
    last = std::max(last, s.end);
  }
  const perfbench::PoolUsage pool =
      perfbench::pool_usage(m.stamps, first, last, static_cast<int>(mt));

  r.add("daggen.corpus_ms", setup.corpus_ms(), "ms");
  r.add("daggen.tasks", static_cast<double>(setup.tasks()), "count");
  r.add("scenario.parse_ms", setup.parse_ms(), "ms");
  r.add("exp.pool_busy_frac", pool.busy_frac, "fraction");
  r.add("exp.pool_tail_s", pool.tail_s, "s");
  for (const auto& m2 : kServeLayerMetrics) r.add(m2[0], 0, m2[1]);
}

void run_batch(Result& r, const std::string& workload, std::uint64_t seed,
               double seconds, bool trace) {
  const ScenarioSpec spec = batch_spec(workload);
  BatchSetup setup(spec);

  // Untimed warm-up on the pool (starts it, fills every participating
  // thread's planner caches) that also records the reference bytes and
  // outcomes.
  PassSession warm;
  const Pass ref = run_pass(spec, half_nproc(), &warm);
  if (warm.outcomes.empty() || warm.bad_index)
    r.error("warm-up pass ran no runs or an out-of-range run");
  r.tally(warm.outcomes.size(), 0);
  check_digest(r, workload, kDefaultSeed, fnv1a(ref.bytes));
  r.notes.push_back("matrix " + std::to_string(warm.outcomes.size()) +
                    " runs");
  if (trace)
    trace_batch(r, spec, setup, ref, warm.outcomes);
  else
    time_batch(r, spec, setup, ref, warm.outcomes, seconds);
  // Last: its traced pass's span buffers stay allocated, and peak_rss_mb
  // must not count them.
  seeded_oracle(r, spec, seed);
}

// ---- serve_open ----------------------------------------------------------

/// A forked `rats serve` daemon.  It stays in the benchmark's process
/// group, so run.py can stop the whole tree if the benchmark overruns.
class DaemonProcess {
 public:
  explicit DaemonProcess(const rats::serve::DaemonOptions& options)
      : socket_(options.socket_path) {
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    RATS_REQUIRE(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      if (!std::freopen("/dev/null", "w", stdout) ||
          !std::freopen("/dev/null", "w", stderr))
        _exit(3);
      _exit(rats::serve::run_daemon(options));
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { stop(); }

  /// Polls `ping` until it answers; false past the deadline.
  bool wait_ready(double timeout_s) const {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      try {
        if (rats::serve::request_json(socket_, "{\"cmd\":\"ping\"}")
                .get_int("ok") == 1)
          return true;
      } catch (const rats::Error&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

  const std::string& socket() const { return socket_; }

  /// Asks for a clean shutdown and waits; kills the daemon if it does
  /// not exit (its workers then read EOF and exit).  Returns true on a
  /// clean exit 0.
  bool stop() {
    if (pid_ <= 0) return true;
    try {
      rats::serve::request(socket_, "{\"cmd\":\"shutdown\"}");
    } catch (const rats::Error&) {
    }
    int status = 0;
    const double deadline = now_s() + 10;
    pid_t got = 0;
    while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           now_s() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    bool clean = got == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (got != pid_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      clean = false;
    }
    pid_ = -1;
    return clean;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Waits for every child left: workers orphaned by a stopped daemon
/// come back to the benchmark, a child subreaper.
void reap_children() {
  while (::waitpid(-1, nullptr, 0) > 0) {
  }
}

/// Times `repeats` daemon set-ups (fork plus worker pre-fork until
/// `ping` answers), for at least `min_seconds`, into `setup`.
void sample_daemon_setup(Result& r, const rats::serve::DaemonOptions& options,
                         std::size_t repeats, double min_seconds,
                         std::vector<double>& setup) {
  const std::size_t goal = setup.size() + repeats;
  for (const double start = now_s();
       setup.size() < goal || now_s() - start < min_seconds;) {
    const double t0 = now_s();
    DaemonProcess d(options);
    if (!d.wait_ready(10)) r.error("daemon did not answer ping");
    setup.push_back(now_s() - t0);
    if (!d.stop()) r.error("daemon did not shut down cleanly");
  }
  reap_children();
}

/// One job of the open-loop stream, with the client's stamps (seconds).
struct Job {
  std::string spec_text;
  double due = 0, sent = -1, acked = -1, running = -1, done = -1,
         received = -1;
  CpuTicks ticks;  ///< machine CPU counters when it was sent
  std::string id, report;
  bool failed = false;
};

/// Job i: the shape of scenarios/hier_quick.rats with its own
/// generate-seed drawn from the workload seed, run single-threaded in
/// the daemon's worker processes.
std::string job_spec(const ScenarioSpec& base, std::uint64_t seed,
                     std::size_t i) {
  ScenarioSpec s = base;
  s.name = "serve-open";
  s.workload.generate_seed =
      splitmix64(seed * 0x100000001B3ull + i) % (1ull << 31);
  std::string text = rats::scenario::emit_scenario(s);
  // `threads` is an execution detail emit_scenario leaves out.
  const std::string kind_line = "kind = \"" + s.kind + "\"\n";
  const std::size_t at = text.find(kind_line);
  RATS_REQUIRE(at != std::string::npos, "emitted spec has no kind line");
  text.insert(at + kind_line.size(), "threads = 1\n");
  return text;
}

std::string job_request(const char* cmd, const std::string& id) {
  return std::string("{\"cmd\":\"") + cmd + "\"," +
         rats::serve::field("job", id) + "}";
}

/// Drives the open loop: job i is due at start + i / rate and is timed
/// from its due time until its merged report is received.  The client
/// is single-threaded: it submits each job when due, polls the jobs in
/// flight every kPollSeconds and fetches each result as soon as its
/// status reads done (the daemon keeps only the last 16 finished jobs).
void open_loop(std::vector<Job>& jobs, const std::string& socket,
               double timeout_s) {
  namespace sv = rats::serve;
  const double start = now_s() + 0.05;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].due = start + static_cast<double>(i) / kJobsPerSecond;
  const double deadline = jobs.back().due + timeout_s;
  std::vector<std::size_t> flight;
  std::size_t next = 0;
  while (next < jobs.size() || !flight.empty()) {
    if (next < jobs.size() && now_s() >= jobs[next].due) {
      Job& j = jobs[next++];
      j.ticks = cpu_ticks();
      j.sent = now_s();
      try {
        const rats::json::Value reply = sv::request_json(
            socket, std::string("{\"cmd\":\"submit\",") +
                        sv::field("spec", j.spec_text) + "}");
        j.acked = now_s();
        if (reply.get_int("ok") == 1) {
          j.id = reply.require_string("job", "submit reply");
          flight.push_back(next - 1);
        } else {
          j.failed = true;  // refused: counts as missing every limit
        }
      } catch (const rats::Error&) {
        j.failed = true;
      }
      continue;
    }
    if (now_s() > deadline) {
      for (std::size_t k : flight) jobs[k].failed = true;
      break;
    }
    for (std::size_t f = 0; f < flight.size();) {
      Job& j = jobs[flight[f]];
      bool finished = false;
      try {
        const rats::json::Value st =
            sv::request_json(socket, job_request("status", j.id));
        const std::string state = st.get_string("state");
        const double t = now_s();
        if (st.get_int("ok") != 1 || state == "failed") {
          j.failed = finished = true;
        } else if (state == "running" || state == "done") {
          if (j.running < 0) j.running = t;
          if (state == "done") {
            j.done = t;
            const rats::json::Value res =
                sv::request_json(socket, job_request("result", j.id));
            j.received = now_s();
            if (res.get_int("ok") == 1)
              j.report = res.require_string("report", "result reply");
            else
              j.failed = true;
            finished = true;
          }
        }
      } catch (const rats::Error&) {
        j.failed = finished = true;
      }
      if (finished) {
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(f));
      } else {
        ++f;
      }
      if (next < jobs.size() && now_s() >= jobs[next].due) break;
    }
    double wake = now_s() + kPollSeconds;
    if (next < jobs.size()) wake = std::min(wake, jobs[next].due);
    const double nap = wake - now_s();
    if (nap > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(nap));
  }
}

std::vector<double> ms_between(std::span<const Job> jobs, double Job::*from,
                               double Job::*to) {
  std::vector<double> v;
  for (const Job& j : jobs)
    if (!j.failed && j.*from >= 0 && j.*to >= 0)
      v.push_back((j.*to - j.*from) * 1e3);
  return v;
}

void run_serve(Result& r, std::uint64_t seed, double seconds, bool trace) {
  namespace sv = rats::serve;
  const ScenarioSpec base =
      rats::scenario::load_scenario("scenarios/hier_quick.rats");
  const unsigned workers = half_nproc();
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);  // orphaned workers come back to us

  // The first kWarmupJobs of the stream warm the fresh worker processes
  // and are left out of every timing; all jobs go through the oracles.
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds * kJobsPerSecond)));
  std::vector<Job> jobs(kWarmupJobs + count);
  std::vector<ScenarioSpec> specs;
  std::vector<double> parse_ms, corpus_ms;
  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].spec_text = job_spec(base, seed, i);
    const double t0 = now_s();
    specs.push_back(rats::scenario::parse_scenario_string(jobs[i].spec_text));
    const double t1 = now_s();
    const auto entries = specs.back().workload.resolve();
    const double t2 = now_s();
    parse_ms.push_back((t1 - t0) * 1e3);
    corpus_ms.push_back((t2 - t1) * 1e3);
    for (const auto& e : entries)
      tasks += static_cast<std::uint64_t>(e.graph.num_tasks());
  }

  sv::DaemonOptions options;
  options.socket_path =
      ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  options.workers = static_cast<int>(workers);
  options.queue_capacity = 64;
  options.shard_timeout = 60;

  std::vector<double> setup;
  sample_daemon_setup(r, options, kSetupRepeats, kSetupSeconds, setup);

  // The load phase.
  rats::json::Value stats;
  CpuTicks end_ticks;
  const double service_cpu0 = children_cpu_s();
  {
    DaemonProcess d(options);
    if (!d.wait_ready(10)) throw rats::Error("daemon did not answer ping");
    open_loop(jobs, d.socket(), 60);
    end_ticks = cpu_ticks();
    stats = sv::request_json(d.socket(), "{\"cmd\":\"stats\"}");
    if (!d.stop()) r.error("daemon did not shut down cleanly");
  }
  reap_children();
  const double service_cpu = children_cpu_s() - service_cpu0;
  sample_daemon_setup(r, options, kSetupRepeats, kSetupSeconds, setup);

  const std::span<const Job> timed(jobs.data() + kWarmupJobs, count);
  std::uint64_t failed_jobs = 0;
  for (const Job& j : jobs)
    if (j.failed || j.received < 0) ++failed_jobs;
  if (failed_jobs)
    r.error(std::to_string(failed_jobs) + " jobs failed or were refused");
  double last = 0;
  std::vector<double> latency, sent, due;
  for (const Job& j : timed) {
    const bool ok = !j.failed && j.received >= 0;
    latency.push_back(ok ? (j.received - j.due) * 1e3
                         : std::numeric_limits<double>::infinity());
    if (ok) last = std::max(last, j.received);
    due.push_back(j.due * 1e3);
    sent.push_back(j.sent * 1e3);
  }
  const std::vector<double> late_ms = perfbench::lateness(due, sent);

  std::vector<double> window_steal;
  for (std::size_t a = 0; a < count; a += kWindowJobs) {
    const std::size_t b = a + kWindowJobs;
    window_steal.push_back(steal_frac(
        timed[a].ticks, b < count ? timed[b].ticks : end_ticks));
  }
  std::vector<double> quiet_latency;
  double quiet_steal = 0;
  const std::vector<std::size_t> quiet = perfbench::quiet_half(window_steal);
  for (const std::size_t w : quiet) {
    quiet_steal += window_steal[w] / static_cast<double>(quiet.size());
    for (std::size_t i = w * kWindowJobs;
         i < std::min(count, (w + 1) * kWindowJobs); ++i)
      quiet_latency.push_back(latency[i]);
  }
  r.notes.push_back("steal " + percent(steal_frac(timed.front().ticks,
                                                  end_ticks)) +
                    " over the load phase, " + percent(quiet_steal) +
                    " over the " + std::to_string(quiet.size()) +
                    " quieter windows timed");
  const double job_p50 =
      required_percentile(r, quiet_latency, 50, "job latency");
  const double job_p90 =
      required_percentile(r, quiet_latency, 90, "job latency");
  if (perfbench::fell_behind(late_ms, job_p50))
    r.error("the load generator fell behind its schedule");

  // Served == direct: each spec through build_report in this process,
  // after the timed window, on all cores.
  std::vector<std::string> direct(jobs.size());
  std::vector<std::vector<RunOutcome>> outcomes(jobs.size());
  rats::parallel_for(jobs.size(), [&](std::size_t i) {
    PassSession s;
    direct[i] = rats::report::render_json(
        rats::scenario::build_report(specs[i], &s));
    outcomes[i] = std::move(s.outcomes);
  }, nproc());
  std::uint64_t mismatched = 0, runs = 0, warmup_runs = 0;
  std::string digest_input;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    runs += outcomes[i].size();
    if (i < kWarmupJobs) warmup_runs += outcomes[i].size();
    if (!jobs[i].failed && jobs[i].report != direct[i]) ++mismatched;
    if (i < kDigestJobs) digest_input += direct[i] + "\n";
  }
  if (mismatched)
    r.error(std::to_string(mismatched) +
            " served reports differ from the direct build_report");
  r.tally(jobs.size(), mismatched + failed_jobs);
  if (jobs.size() >= kDigestJobs)
    check_digest(r, "serve_open", seed, fnv1a(digest_input));
  const auto completed =
      static_cast<double>(stats.get_int("runs_completed")) -
      static_cast<double>(warmup_runs);
  r.notes.push_back("jobs " + std::to_string(kWarmupJobs) + " warm-up + " +
                    std::to_string(count) + " timed x " +
                    std::to_string(runs / jobs.size()) + " runs at " +
                    std::to_string(workers) + " workers");

  if (!trace) {
    r.add("setup_s", least(setup), "s");
    r.add("runs_per_s",
          static_cast<double>(stats.get_int("runs_completed")) / service_cpu,
          "1/s");
    r.add("runs_per_s_mt", completed / (last - timed.front().due), "1/s");
    r.add("job_p50_ms", job_p50, "ms");
    r.add("job_p90_ms", job_p90, "ms");
    r.add("peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN), "MiB");
    return;
  }

  // Traced: the per-layer passes over the first jobs' specs, then the
  // serve module's in-process plan / shard / merge on every spec.
  const std::size_t layer_jobs = std::min(kLayerJobs, specs.size());
  measure_layers(
      r, std::vector<ScenarioSpec>(specs.begin(), specs.begin() + layer_jobs),
      std::vector<std::vector<RunOutcome>>(outcomes.begin(),
                                           outcomes.begin() + layer_jobs));

  std::vector<double> plan_ms, shard_ms, merge_ms;
  std::uint64_t merge_bad = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    double t0 = now_s();
    const sv::ShardPlan plan = sv::plan_shards(specs[i], workers);
    plan_ms.push_back((now_s() - t0) * 1e3);
    std::vector<RunOutcome> merged(plan.total_runs);
    for (const sv::ShardRange& range : plan.shards) {
      t0 = now_s();
      const std::string payload = sv::run_shard_payload(
          specs[i], range.begin, range.end, plan.total_runs);
      shard_ms.push_back((now_s() - t0) * 1e3);
      const sv::ShardOutcomes got = sv::parse_shard_payload(payload);
      for (std::size_t k = 0; k < got.outcomes.size(); ++k)
        if (got.begin + k < merged.size())
          merged[got.begin + k] = got.outcomes[k];
    }
    t0 = now_s();
    const std::string bytes = sv::merge_report_json(specs[i], merged);
    merge_ms.push_back((now_s() - t0) * 1e3);
    if (!jobs[i].failed && bytes != jobs[i].report) ++merge_bad;
  }
  if (merge_bad)
    r.error(std::to_string(merge_bad) +
            " in-process merges differ from the served reports");
  r.tally(jobs.size(), merge_bad);

  r.add("daggen.corpus_ms", perfbench::median(corpus_ms), "ms");
  r.add("daggen.tasks", static_cast<double>(tasks), "count");
  r.add("scenario.parse_ms", perfbench::median(parse_ms), "ms");
  r.add("exp.pool_busy_frac", 0, "fraction");
  r.add("exp.pool_tail_s", 0, "s");
  const double values[] = {
      required_percentile(r, ms_between(timed, &Job::sent, &Job::acked), 50,
                          "submit"),
      required_percentile(r, ms_between(timed, &Job::acked, &Job::running),
                          90, "queue"),
      required_percentile(r, ms_between(timed, &Job::running, &Job::done), 50,
                          "exec"),
      required_percentile(r, ms_between(timed, &Job::done, &Job::received),
                          50, "fetch"),
      required_percentile(r, plan_ms, 50, "plan"),
      required_percentile(r, shard_ms, 50, "shard run"),
      required_percentile(r, merge_ms, 50, "merge"),
      static_cast<double>(stats.get_int("shards_dispatched")),
      static_cast<double>(stats.get_int("shards_retried")),
      static_cast<double>(stats.get_int("jobs_rejected")),
      static_cast<double>(stats.get_int("worker_restarts")),
      required_percentile(r, late_ms, 90, "lateness"),
  };
  for (std::size_t k = 0; k < std::size(values); ++k)
    r.add(kServeLayerMetrics[k][0], values[k], kServeLayerMetrics[k][1]);
}

// ---- main ----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r, const std::string& header) {
  const rats::obs::BuildStamp stamp = rats::obs::build_stamp();
  std::printf("%s\n", header.c_str());
  std::printf("stamp host=%s nproc=%u build=%s git=%s\n",
              stamp.hostname.c_str(), nproc(), stamp.build_type.c_str(),
              stamp.git_describe.c_str());
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : r.metrics)
    std::printf("  %-26s %16.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const double error_rate =
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 1.0;
  std::printf("  %-26s %16.10g %s (%llu of %llu)\n", "error_rate", error_rate,
              "fraction", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& e : r.errors) std::printf("ERROR %s\n", e.c_str());

  const bool correct = r.errors.empty() && r.failed == 0 && r.attempted > 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig2_matrix|fig4_sweep|serve_open "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      trace = value == "1";
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || !(seconds > 0) ||
      (workload != "fig2_matrix" && workload != "fig4_sweep" &&
       workload != "serve_open"))
    return usage();

  Result r;
  try {
    if (workload == "serve_open")
      run_serve(r, seed, seconds, trace);
    else
      run_batch(r, workload, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(r, "perfbench " + workload + " seed=" + std::to_string(seed) +
                      " seconds=" + json_number(seconds) +
                      " trace=" + (trace ? "1" : "0"));
  return r.errors.empty() && r.failed == 0 ? 0 : 1;
}
