// Structured simulation tracing (opt-in).
//
// A TraceSink is a flat, append-only buffer of timestamped events that
// the simulator and the fluid network fill while they run: task
// start/finish, redistribution intervals (one per DAG edge), per
// sharing-component Max-Min solve events (with the strategy the solver
// dispatch picked) and every rate assignment.  Recording costs one
// branch when disabled (the default — hot paths check a null pointer)
// and one vector append when enabled.
//
// Because the whole simulation stack is deterministic, the event
// stream is a *replayable fingerprint* of a run: re-simulating the
// same scenario must reproduce it byte for byte.  trace/replay.hpp
// builds a checker on exactly that property.
//
// Exporters: JSON-lines (`trace_event_line`, one self-contained object
// per line, doubles printed with round-trip precision) and a Gantt
// table (`trace_gantt`) that renders the task and redistribution
// intervals of one run as an aligned text table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rats {

enum class TraceEventKind : std::uint8_t {
  TaskStart,       ///< a = task id, b = #procs
  TaskFinish,      ///< a = task id
  RedistStart,     ///< a = edge id, b = #transfers, value = remote bytes
  RedistDone,      ///< a = edge id
  SolveComponent,  ///< a = component id, b = #members, value = strategy
  RateChange,      ///< a = flow id, value = new rate (bytes/s)
  // Platform timeline events (see platform/timeline.hpp).
  LinkCapacity,    ///< a = link id, value = new capacity (bytes/s)
  NodeSlowdown,    ///< a = node id, value = speed factor
  NodeFail,        ///< a = node id
  NodeRestart,     ///< a = node id
  TaskKill,        ///< a = task id, b = failed node
  TaskRemap,       ///< a = task id, b = old proc, value = new proc
  RedistAbort,     ///< a = edge id
};

/// Stable wire name of an event kind ("task_start", "rate_change", ...).
const char* to_string(TraceEventKind kind);

/// Solver-strategy codes carried by SolveComponent events.  Code 2 is
/// reserved: older builds wrote it for a two-link cold solver, so their
/// traces fail `rats verify` at the first such solve.
enum : std::int32_t {
  kSolveSingleton = 0,  ///< single-flow short-circuit
  kSolveWarm = 1,       ///< warm re-solve over the pending delta
  kSolveGeneral = 3,    ///< cold, adjacency-sharing lazy-heap solver
};

/// One recorded event.  `a`/`b` are ids/counts per the kind table
/// above; unused fields stay at their defaults.
struct TraceEvent {
  Seconds time{};
  TraceEventKind kind{};
  std::int32_t a = -1;
  std::int32_t b = -1;
  double value = 0;
};

/// Append-only event buffer for one simulation run.
class TraceSink {
 public:
  void record(Seconds time, TraceEventKind kind, std::int32_t a,
              std::int32_t b = -1, double value = 0) {
    events_.push_back(TraceEvent{time, kind, a, b, value});
  }
  /// Appends events another sink recorded — how a run matrix hands one
  /// simulation's events to every run that repeats its schedule.
  void append(const std::vector<TraceEvent>& events) {
    events_.insert(events_.end(), events.begin(), events.end());
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// One event as a self-contained JSON-lines object, e.g.
///   {"t":0.10000000000000001,"ev":"task_start","a":3,"b":2,"v":0}
/// Doubles use `trace_double` so parsing the line recovers the exact
/// bits.
std::string trace_event_line(const TraceEvent& event);

/// Stateful delta-encoding line writer for one run's event stream.
///
/// Rate-change records dominate trace size, and their fields repeat
/// heavily: one Max-Min solve assigns many rates at a single timestamp,
/// and fair sharing hands whole components the same rate value.  Rate
/// events therefore encode as
///   {"r":<flow>[,"t":<time>][,"v":<rate>]}
/// with "t"/"v" omitted when bit-identical to the running values (the
/// time of the previous event of any kind; the value of the previous
/// rate event).  Every other kind uses the self-contained
/// trace_event_line form.  TraceLineDecoder reverses the encoding
/// exactly — encode→decode round-trips every event bit for bit, which
/// is what keeps the replay checker byte-exact on the decoded stream.
/// State is per run: reset both sides at each run boundary.
class TraceLineEncoder {
 public:
  void reset();
  /// Appends the encoded line for `event`, newline included.
  void append(const TraceEvent& event, std::string& out);

 private:
  bool have_time_ = false;
  bool have_rate_ = false;
  double time_ = 0;
  double rate_ = 0;
};

/// Reverses TraceLineEncoder (see above).
class TraceLineDecoder {
 public:
  void reset();
  /// Decodes one line (no trailing newline) into `out`; returns false
  /// on malformed input.
  bool decode(const std::string& line, TraceEvent& out);

 private:
  bool have_time_ = false;
  bool have_rate_ = false;
  double time_ = 0;
  double rate_ = 0;
};

/// Round-trip double formatting (%.17g) shared by every trace field —
/// writer and replay checker must agree byte for byte, so this is the
/// only double formatter trace files go through.
std::string trace_double(double value);

/// JSON string escaping for the writer/header helpers (escapes
/// backslash, quote, and control characters incl. newlines).
std::string json_escape(const std::string& text);

/// Renders the task and redistribution intervals of an event stream as
/// an aligned Gantt-style table sorted by interval start (tasks first
/// on ties).  `task_names`, when given, must cover every task id in
/// the stream.
std::string trace_gantt(const std::vector<TraceEvent>& events,
                        const std::vector<std::string>* task_names = nullptr);

}  // namespace rats
