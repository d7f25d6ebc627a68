// Scenario kind registry: maps each scenario kind onto the src/exp/
// runner machinery and builds the structured ReportModel the renderers
// (report/render.hpp) turn into text/CSV/JSON.
//
// Kinds (one per paper figure or table, plus four generic ones); each
// has its defaults in exactly one place, scenarios/<kind>.rats:
//   fig2 fig3 fig6 fig7      corpus x algorithms on one cluster (rows
//                            of one figure table: heading, metric,
//                            paper note)
//   fig4 fig5                the paper's parameter sweep pivot tables
//                            (layouts over the sweep kind's runner)
//   table1 table2 table3     static/structural reports
//   table4                   full tuning sweeps (Table IV)
//   table5 table6            tuned multi-cluster comparisons
//   experiment               generic corpus x algorithms summary
//   single                   per-task timeline of each workload entry
//   sweep                    generic grid over any RatsParams field
//   robustness               healthy vs [events]-degraded comparison
//   ablation_allocation      CPA/MCPA/HCPA allocations, same mapper
//   ablation_sort            RATS with and without its secondary sort
//   ablation_contention      each schedule with and without contention
//
// Execution and rendering are separated: `build_report` executes the
// scenario's run matrix exactly once and returns the model; `run`
// renders the model to stdout (text) and to the [output] artefacts
// (CSV/JSON report files, streamed trace).  The matrix kinds (all but
// table1-4 and ablation_contention) are *traceable*: the RunSession hook
// (exp/session.hpp) attaches a per-run TraceSink inside that single
// pass, so `rats run --trace` never re-simulates — the trace streams
// through trace/writer.hpp while the report data accumulates.
#pragma once

#include <string>
#include <vector>

#include "exp/session.hpp"
#include "report/model.hpp"
#include "scenario/spec.hpp"

namespace rats::scenario {

/// Per-invocation overrides (command line) layered over the spec.
struct RunOptions {
  bool has_threads = false;
  unsigned threads = 0;
  bool csv = false;   ///< force CSV emission on
  bool full = false;  ///< force the paper-scale corpus
  /// Repeat the whole scenario this many times and fail (rats::Error)
  /// if any rendered output byte — text, CSV, JSON or trace — differs
  /// between repetitions.  1 = run once, no comparison.
  int check = 1;
  /// Artefact paths; each overrides the spec's [output] counterpart.
  std::string trace_path;
  std::string report_csv_path;
  std::string report_json_path;
  /// Observability (src/obs/).  `metrics_path` enables the registry and
  /// writes a standalone machine-readable snapshot (plus a typed
  /// metrics section in the CSV/JSON reports); `profile_path` records
  /// pipeline phase spans and writes a Chrome trace-event JSON;
  /// `progress` prints a live stderr heartbeat.  All three leave
  /// stdout and every other artefact byte-identical.
  std::string metrics_path;
  std::string profile_path;
  bool progress = false;
};

/// All registered kinds, in registry order.
std::vector<std::string> kinds();

/// True when `kind` exists and supports trace capture.
bool kind_supports_trace(const std::string& kind);

/// The optional inputs of a spec that only some kinds read; a spec
/// giving one that its kind does not read is rejected.
enum class Input {
  kEvents,         ///< an [events] timeline
  kAlgorithmList,  ///< [algorithm] sections
  kTunedPreset,    ///< [algorithms] preset = "tuned"
  kOtherSources,   ///< a [workload] source other than "corpus"
  // The [sweep] keys, in the order errors list them.
  kMindelta, kMaxdelta, kMinrho, kPacking, kBase, kEventFactor, kEventAt,
};

/// Empty when `kind` reads `input` (as does an unknown kind: its name
/// is the error), else the error saying what the kind reads instead.
/// The parser reports it at the line of the key or section giving the
/// input; build_report reports it for built specs.
std::string unread(const std::string& kind, Input input);

/// Executes the scenario's run matrix once and returns the structured
/// report.  `session`, when given, observes every (entry, algorithm)
/// run of a traceable kind — the single simulation pass serves report
/// and trace.  Throws rats::Error on unknown kinds, spec/kind
/// mismatches, or a session on an untraceable kind.
report::ReportModel build_report(const ScenarioSpec& spec,
                                 RunSession* session = nullptr);

/// Executes the scenario (one pass) and renders: the text report to
/// stdout, and any [output] / override artefacts — CSV report, JSON
/// report, and a streaming simulation trace (a note per file goes to
/// stderr, keeping stdout byte-identical to an artefact-free run).
void run(const ScenarioSpec& spec, const RunOptions& options = {});

/// Renders the complete trace text (header + runs) for a traceable
/// kind without printing anything.  Deterministic for a given spec —
/// the replay checker's whole contract — and byte-identical to what
/// `run` streams to the trace path.
std::string render_trace(const ScenarioSpec& spec, unsigned threads);

}  // namespace rats::scenario
