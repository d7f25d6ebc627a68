// `rats` — the command-line driver for the scenario engine.
//
//   rats run <scenario.rats> [--trace out.jsonl] [--threads N]
//                            [--csv] [--full] [--check N] [--timeout SECS]
//                            [--metrics m.json] [--profile spans.json]
//                            [--progress]
//   rats verify <trace.jsonl> [--threads N]
//   rats emit (<scenario.rats> | --kind <kind>)
//   rats kinds
//   rats fuzz [--quick] [--count N] [--seed S] [--timeout SECS]
//             [--regress-dir DIR] [--index I] [--emit] [--no-minimize]
//   rats serve --socket PATH [--workers N] [--queue N] [...]
//   rats submit <scenario.rats> --socket PATH [--out FILE] [...]
//   rats sched [legacy options]      (the original one-shot scheduler CLI)
//
// `run` executes a declarative scenario file (grammar in
// src/scenario/parser.hpp; cookbook in README.md).  `--trace` writes a
// structured JSON-lines simulation trace that `verify` re-simulates
// and byte-diffs — a whole-stack determinism check.  `emit` prints the
// canonical form of a scenario file (or of a registry kind's default
// spec, which is how the checked-in scenarios/*.rats were generated).
//
// The old direct scheduling interface survives as the `sched`
// subcommand (also used by examples/docs):
//   rats sched --generate fft:8 --platform flat:64:3.0 --algo delta \
//              --mindelta -0.5 --maxdelta 1 --dot fft.dot
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "fuzz/driver.hpp"
#include "common/rng.hpp"
#include "daggen/kernels.hpp"
#include "daggen/random_dag.hpp"
#include "exp/autotune.hpp"
#include "io/workflow_io.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "platform/grid5000.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"

using namespace rats;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: rats <command> [options]\n"
      "  run <scenario.rats>     execute a scenario file (one simulation\n"
      "                          pass feeds report, trace and artefacts)\n"
      "      --trace FILE        stream a JSON-lines simulation trace\n"
      "      --report-csv FILE   write the CSV report rendering\n"
      "      --report-json FILE  write the JSON report rendering\n"
      "      --threads N         worker threads (0 = hardware)\n"
      "      --csv               also emit CSV after each table\n"
      "      --full              paper-scale corpus\n"
      "      --check N           run the scenario N times and fail if\n"
      "                          any output byte differs\n"
      "      --timeout SECS      abort (exit 124) past this wall clock\n"
      "      --metrics FILE      write a machine-readable metrics snapshot\n"
      "                          (and embed counters in report artefacts)\n"
      "      --profile FILE      write pipeline phase spans as Chrome\n"
      "                          trace-event JSON (chrome://tracing)\n"
      "      --progress          live stderr heartbeat (runs, rate, ETA)\n"
      "  verify <trace.jsonl>    re-simulate a trace and byte-diff it\n"
      "      --threads N         worker threads for the replay\n"
      "  emit <scenario.rats>    print the canonical form of a scenario\n"
      "  emit --kind <kind>      print a registry kind's default scenario\n"
      "  kinds                   list registered scenario kinds\n"
      "  fuzz                    randomized validation campaign: generate\n"
      "                          seeded specs, run the invariant oracle\n"
      "                          battery on each in an isolated child,\n"
      "                          minimize failures into scenarios/regress/\n"
      "      --quick             100-spec CI tier (default 250)\n"
      "      --count N           specs to run\n"
      "      --seed S            campaign seed (default 1)\n"
      "      --timeout SECS      per-spec watchdog (default 30)\n"
      "      --regress-dir DIR   where failing repros are written\n"
      "      --index I           run only spec I of the campaign\n"
      "      --emit              print the generated specs, run nothing\n"
      "      --no-minimize       write repros without delta-debugging\n"
      "      --progress          live stderr heartbeat (specs, rate, ETA)\n"
      "      --metrics FILE      write a campaign metrics snapshot\n"
      "  serve                   scenario service: pre-forked workers run\n"
      "                          submitted specs in shards; merged reports\n"
      "                          are byte-identical to `rats run`\n"
      "      --socket PATH       unix socket to listen on (required)\n"
      "      --workers N         worker processes (default 2)\n"
      "      --queue N           max unfinished jobs before submits are\n"
      "                          rejected with a retry hint (default 8)\n"
      "      --shard-timeout S   kill + retry a shard past this (default 300)\n"
      "      --retry-after MS    backpressure hint to clients (default 250)\n"
      "      --shards N          shards per job (default: worker count)\n"
      "      --metrics FILE      write an obs snapshot at shutdown\n"
      "      --progress          stderr line per submit/shard completion\n"
      "  submit <scenario.rats>  submit a spec to a running daemon, wait,\n"
      "                          print (or --out) the report JSON\n"
      "      --socket PATH       daemon socket (required)\n"
      "      --out FILE          write the report JSON here\n"
      "      --timeout SECS      overall wait budget (default 600)\n"
      "      --progress          stderr status while waiting\n"
      "      --crash-test        fault hook: first shard kills its worker\n"
      "  submit --stats          print the daemon's stats JSON\n"
      "  submit --shutdown       stop the daemon\n"
      "  sched [options]         one-shot scheduling (rats sched --help)\n");
  std::exit(code);
}

[[noreturn]] void sched_usage(int code) {
  std::printf(
      "usage: rats sched [options]\n"
      "  --dag FILE            workflow file (see src/io/workflow_io.hpp)\n"
      "  --generate SPEC       fft:<k> | strassen | layered:<n> | irregular:<n>\n"
      "  --platform P          chti | grillon | grelon | flat:<nodes>:<gflops>\n"
      "  --algo A              cpa | mcpa | hcpa | delta | time-cost |\n"
      "                        auto-delta | auto-time-cost\n"
      "  --mindelta X --maxdelta X --minrho X --no-packing   RATS knobs\n"
      "  --seed S              generator seed (default 42)\n"
      "  --no-contention       simulate without link contention\n"
      "  --dot FILE            write the DAG as Graphviz DOT\n"
      "  --save FILE           write the workflow back as text\n");
  std::exit(code);
}

DagFamily family_of(const std::string& spec) {
  if (spec.rfind("fft", 0) == 0) return DagFamily::FFT;
  if (spec.rfind("strassen", 0) == 0) return DagFamily::Strassen;
  if (spec.rfind("layered", 0) == 0) return DagFamily::Layered;
  return DagFamily::Irregular;
}

TaskGraph generate(const std::string& spec, std::uint64_t seed) {
  Rng rng(seed);
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const int arg = colon == std::string::npos
                      ? 0
                      : std::atoi(spec.c_str() + colon + 1);
  if (kind == "fft") return generate_fft_dag(arg > 0 ? arg : 8, rng);
  if (kind == "strassen") return generate_strassen_dag(rng);
  RandomDagParams params;
  params.num_tasks = arg > 0 ? arg : 50;
  params.width = 0.5;
  params.density = 0.8;
  params.regularity = 0.5;
  if (kind == "layered") return generate_layered_dag(params, rng);
  if (kind == "irregular") {
    params.jump = 2;
    return generate_irregular_dag(params, rng);
  }
  throw Error("unknown generator '" + spec + "'");
}

Cluster platform_of(const std::string& spec) {
  if (spec == "chti") return grid5000::chti();
  if (spec == "grillon") return grid5000::grillon();
  if (spec == "grelon") return grid5000::grelon();
  if (spec.rfind("flat:", 0) == 0) {
    int nodes = 0;
    double gflops = 0;
    if (std::sscanf(spec.c_str(), "flat:%d:%lf", &nodes, &gflops) == 2 &&
        nodes > 0 && gflops > 0)
      return Cluster::flat("flat" + std::to_string(nodes), nodes,
                           gflops * Giga, 100e-6, kGigabitPerSecond);
  }
  throw Error("unknown platform '" + spec + "'");
}

unsigned parse_threads(const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) usage(2);
  return static_cast<unsigned>(v);
}

/// Parses a seed: decimal digits only (strtoull would wrap a sign) that
/// fit 64 bits.  Anything else exits through `fail(2)`.
std::uint64_t parse_seed(const char* text, void (*fail)(int)) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
      errno == ERANGE)
    fail(2);
  return v;
}

/// Wall-clock watchdog for `rats run --timeout`: a detached thread
/// that force-exits the process (status 124, timeout(1) convention)
/// unless disarmed before the deadline.  A detached thread rather than
/// a joined one so a hung simulation cannot block the exit path.
class Watchdog {
 public:
  explicit Watchdog(double seconds) {
    if (seconds <= 0) return;
    std::thread([seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(seconds);
      if (cv_.wait_until(lock, deadline, [] { return disarmed_; })) return;
      std::fprintf(stderr, "rats run: timed out after %gs\n", seconds);
      std::_Exit(124);
    }).detach();
  }
  ~Watchdog() {
    std::lock_guard<std::mutex> lock(mutex_);
    disarmed_ = true;
    cv_.notify_all();
  }

 private:
  // Static: the detached thread may outlive the Watchdog object.
  static std::mutex mutex_;
  static std::condition_variable cv_;
  static bool disarmed_;
};

std::mutex Watchdog::mutex_;
std::condition_variable Watchdog::cv_;
bool Watchdog::disarmed_ = false;

int cmd_run(int argc, char** argv) {
  std::string file;
  scenario::RunOptions options;
  double timeout = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (a == "--trace") options.trace_path = next();
    else if (a == "--report-csv") options.report_csv_path = next();
    else if (a == "--report-json") options.report_json_path = next();
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--profile") options.profile_path = next();
    else if (a == "--progress") options.progress = true;
    else if (a == "--threads") {
      options.has_threads = true;
      options.threads = parse_threads(next());
    } else if (a == "--csv") options.csv = true;
    else if (a == "--full") options.full = true;
    else if (a == "--check") {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 1) usage(2);
      options.check = static_cast<int>(v);
    } else if (a == "--timeout") {
      char* end = nullptr;
      timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || timeout <= 0) usage(2);
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats run: missing scenario file\n");
    usage(2);
  }
  const Watchdog watchdog(timeout);
  // Turn observability on before the spec parse so the "parse" span
  // and its counters are captured; scenario::run would only flip the
  // switches after parsing.
  if (!options.metrics_path.empty()) obs::set_metrics_enabled(true);
  if (!options.profile_path.empty()) obs::set_profiling_enabled(true);
  scenario::run(scenario::load_scenario(file), options);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  std::string file;
  unsigned threads = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads") {
      if (i + 1 >= argc) usage(2);
      threads = parse_threads(argv[++i]);
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats verify: missing trace file\n");
    usage(2);
  }
  const ReplayReport report = verify_trace(file, threads);
  if (!report.ok) {
    std::fprintf(stderr, "FAIL %s\n", report.error.c_str());
    return 1;
  }
  std::printf("OK %s: %zu runs, %zu events replayed bit-identically\n",
              file.c_str(), report.runs, report.events);
  return 0;
}

int cmd_emit(int argc, char** argv) {
  std::string file, kind;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kind") {
      if (i + 1 >= argc) usage(2);
      kind = argv[++i];
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty() == kind.empty()) {
    std::fprintf(stderr, "rats emit: need a scenario file or --kind\n");
    usage(2);
  }
  const scenario::ScenarioSpec spec = kind.empty()
                                          ? scenario::load_scenario(file)
                                          : scenario::default_spec(kind);
  std::printf("%s", scenario::emit_scenario(spec).c_str());
  return 0;
}

int cmd_kinds() {
  for (const std::string& kind : scenario::kinds()) {
    const char* traced =
        scenario::kind_supports_trace(kind) ? "  (traceable)" : "";
    std::printf("%s%s\n", kind.c_str(), traced);
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  fuzz::FuzzOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto next_long = [&](long min) {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min) usage(2);
      return v;
    };
    if (a == "--quick") options.count = 100;
    else if (a == "--count") options.count = static_cast<int>(next_long(1));
    else if (a == "--seed") options.seed = parse_seed(next(), usage);
    else if (a == "--timeout") {
      char* end = nullptr;
      options.timeout_secs = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.timeout_secs < 0)
        usage(2);
    } else if (a == "--regress-dir") options.regress_dir = next();
    else if (a == "--index") options.index = static_cast<int>(next_long(0));
    else if (a == "--emit") options.emit_only = true;
    else if (a == "--no-minimize") options.minimize = false;
    else if (a == "--progress") options.progress = true;
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--help" || a == "-h") usage(0);
    else usage(2);
  }
  const fuzz::FuzzResult result = fuzz::run_fuzz(options, std::cout);
  return result.failed == 0 ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  serve::DaemonOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto next_long = [&](long min) {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min) usage(2);
      return v;
    };
    if (a == "--socket") options.socket_path = next();
    else if (a == "--workers")
      options.workers = static_cast<int>(next_long(1));
    else if (a == "--queue")
      options.queue_capacity = static_cast<std::size_t>(next_long(1));
    else if (a == "--shard-timeout") {
      char* end = nullptr;
      options.shard_timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.shard_timeout <= 0)
        usage(2);
    } else if (a == "--retry-after")
      options.retry_after_ms = static_cast<int>(next_long(1));
    else if (a == "--shards")
      options.shards_per_job = static_cast<std::size_t>(next_long(1));
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--progress") options.progress = true;
    else if (a == "--help" || a == "-h") usage(0);
    else usage(2);
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "rats serve: --socket is required\n");
    usage(2);
  }
  return serve::run_daemon(options);
}

int cmd_submit(int argc, char** argv) {
  std::string file, socket_path, out_path;
  serve::SubmitOptions options;
  bool stats = false, shutdown = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (a == "--socket") socket_path = next();
    else if (a == "--out") out_path = next();
    else if (a == "--timeout") {
      char* end = nullptr;
      options.timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.timeout <= 0) usage(2);
    } else if (a == "--progress") options.progress = true;
    else if (a == "--crash-test") options.crash_test = true;
    else if (a == "--stats") stats = true;
    else if (a == "--shutdown") shutdown = true;
    else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "rats submit: --socket is required\n");
    usage(2);
  }
  if (stats) {
    std::printf("%s\n",
                serve::request(socket_path, "{\"cmd\":\"stats\"}").c_str());
    return 0;
  }
  if (shutdown) {
    std::printf("%s\n",
                serve::request(socket_path, "{\"cmd\":\"shutdown\"}").c_str());
    return 0;
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats submit: missing scenario file\n");
    usage(2);
  }
  std::ifstream in(file, std::ios::binary);
  if (!in) throw Error("cannot read scenario '" + file + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string report =
      serve::submit_and_wait(socket_path, text.str(), options);
  if (out_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw Error("cannot write report '" + out_path + "'");
    out << report;
    out.close();
    if (!out.good()) throw Error("failed writing report '" + out_path + "'");
    std::fprintf(stderr, "wrote report %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_sched(int argc, char** argv) {
  std::string dag_file, gen_spec, platform = "grillon", algo = "time-cost";
  std::string dot_file, save_file;
  std::uint64_t seed = 42;
  SchedulerOptions options;
  SimulatorOptions sim_options;
  std::optional<double> mindelta, maxdelta, minrho;
  bool packing = true;

  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) sched_usage(2);
      return argv[++i];
    };
    auto next_double = [&] {
      const char* text = next();
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0') sched_usage(2);
      return v;
    };
    if (a == "--dag") dag_file = next();
    else if (a == "--generate") gen_spec = next();
    else if (a == "--platform") platform = next();
    else if (a == "--algo") algo = next();
    else if (a == "--mindelta") mindelta = next_double();
    else if (a == "--maxdelta") maxdelta = next_double();
    else if (a == "--minrho") minrho = next_double();
    else if (a == "--no-packing") packing = false;
    else if (a == "--seed") seed = parse_seed(next(), sched_usage);
    else if (a == "--no-contention") sim_options.contention = false;
    else if (a == "--dot") dot_file = next();
    else if (a == "--save") save_file = next();
    else if (a == "--help" || a == "-h") sched_usage(0);
    else sched_usage(2);
  }
  if (dag_file.empty() == gen_spec.empty()) {
    std::fprintf(stderr, "need exactly one of --dag or --generate\n");
    sched_usage(2);
  }

  const TaskGraph graph =
      dag_file.empty() ? generate(gen_spec, seed) : load_workflow(dag_file);
  const Cluster cluster = platform_of(platform);

  if (algo == "cpa") options.kind = SchedulerKind::Cpa;
  else if (algo == "mcpa") options.kind = SchedulerKind::Mcpa;
  else if (algo == "hcpa") options.kind = SchedulerKind::Hcpa;
  else if (algo == "delta") options.kind = SchedulerKind::RatsDelta;
  else if (algo == "time-cost") options.kind = SchedulerKind::RatsTimeCost;
  else if (algo == "auto-delta" || algo == "auto-time-cost") {
    const SchedulerKind kind = algo == "auto-delta"
                                   ? SchedulerKind::RatsDelta
                                   : SchedulerKind::RatsTimeCost;
    AutoTuner tuner;
    const DagFamily family =
        gen_spec.empty() ? DagFamily::Irregular : family_of(gen_spec);
    std::printf("auto-tuning %s for %s on %s...\n", algo.c_str(),
                to_string(family).c_str(), cluster.name().c_str());
    options = tuner.options(kind, family, cluster);
    const auto& t = tuner.tuned(family, cluster);
    std::printf("  tuned: mindelta=%.2f maxdelta=%.2f minrho=%.2f\n",
                t.mindelta, t.maxdelta, t.minrho);
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
    sched_usage(2);
  }
  if (mindelta) options.rats.mindelta = *mindelta;
  if (maxdelta) options.rats.maxdelta = *maxdelta;
  if (minrho) options.rats.minrho = *minrho;
  options.rats.packing = packing;

  std::printf("workflow: %d tasks, %d edges; platform %s (%d nodes)\n",
              graph.num_tasks(), graph.num_edges(), cluster.name().c_str(),
              cluster.num_nodes());

  const Schedule schedule = build_schedule(graph, cluster, options);
  const SimulationResult result =
      simulate(graph, schedule, cluster, sim_options);

  std::printf("\n%s: makespan %.2f s (mapper estimate %.2f s), work %.1f "
              "proc*s, network %.1f MiB\n\n",
              to_string(options.kind).c_str(), result.makespan,
              schedule.estimated_makespan(), result.total_work,
              result.network_bytes / MiB);
  std::printf("%-20s %5s %9s %9s %9s\n", "task", "procs", "ready", "start",
              "finish");
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    const auto& tl = result.timeline[static_cast<std::size_t>(t)];
    std::printf("%-20s %5zu %9.2f %9.2f %9.2f\n",
                graph.task(t).name.c_str(), schedule.of(t).procs.size(),
                tl.data_ready, tl.start, tl.finish);
  }

  if (!dot_file.empty()) {
    std::ofstream out(dot_file);
    out << graph.to_dot();
    std::printf("\nwrote DOT to %s\n", dot_file.c_str());
  }
  if (!save_file.empty()) {
    save_workflow(graph, save_file);
    std::printf("wrote workflow to %s\n", save_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  if (command == "run") return cmd_run(argc - 2, argv + 2);
  if (command == "verify") return cmd_verify(argc - 2, argv + 2);
  if (command == "emit") return cmd_emit(argc - 2, argv + 2);
  if (command == "kinds") return cmd_kinds();
  if (command == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
  if (command == "sched") return cmd_sched(argc - 2, argv + 2);
  if (command == "serve") return cmd_serve(argc - 2, argv + 2);
  if (command == "submit") return cmd_submit(argc - 2, argv + 2);
  if (command == "--help" || command == "-h") usage(0);
  // Backwards compatibility: the pre-subcommand CLI started with "--".
  if (command.rfind("--", 0) == 0) return cmd_sched(argc - 1, argv + 1);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  usage(2);
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
