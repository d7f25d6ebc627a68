// `.rats` scenario files: a small self-contained TOML-like text format
// (no external dependencies) with line-numbered validation errors.
//
//   # comment (blank lines ignored)
//   [section]
//   key = value
//
// Values: "strings", numbers (42, -0.5, 100e-6), booleans (true/false)
// and flat arrays ([0, -0.25, -0.5] or ["chti", "grillon"]).
//
// Sections and keys:
//   [scenario]   name, kind, threads
//   [platform]   clusters = ["grillon", ...]           (presets)
//                — or a custom cluster —
//                name, nodes (flat) | cabinets = [24, 24, ...]
//                gflops, latency-us, bandwidth-gbps,
//                uplink-latency-us, uplink-bandwidth-gbps
//   [workload]   source = "corpus" | "family" | "generate" | "file"
//                full, samples-random, samples-kernel, seed,
//                family, cap-per-family,
//                generator, count, fft-k, tasks, width, density,
//                regularity, jump, generate-seed,
//                path
//   [algorithms] preset = "naive" | "tuned"
//   [algorithm]  (repeatable; an explicit algorithm list, in order)
//                name, kind = "cpa"|"mcpa"|"hcpa"|"delta"|"time-cost",
//                mindelta, maxdelta, minrho, packing, secondary-sort
//                (table5, table6 and robustness always run "tuned";
//                fig4, fig5, sweep and table1-4 run their own points.
//                A list for those kinds, or "tuned" for the latter, is
//                an error at its section's line; "naive" is accepted)
//   [events]     on-fail = "reschedule" | "hold"
//   [event]      (repeatable; one timestamped platform event)
//                at, kind = "link-capacity"|"node-slowdown"|
//                           "node-fail"|"node-restart",
//                node | nodes = [1, 3, 7] | cabinet, factor
//                (nodes — and, for node-event kinds, cabinet = k,
//                which selects the cabinet's nodes — are parse-time
//                sugar expanding to one event per node; for
//                link-capacity, cabinet keeps its uplink meaning)
//   [sweep]      mindelta = [...], maxdelta = [...], minrho = [...],
//                packing = [true, false], base = "delta" | "time-cost",
//                event-factor = [...], event-at = [...]
//                (fig4 reads mindelta and maxdelta, fig5 minrho, sweep
//                every key; any other key, or a [sweep] key under any
//                other kind, is an error at its line)
//   [output]     csv, gantt, report-csv, report-json, trace,
//                trace-gzip
//
// Every error (syntax, unknown section/key, wrong type, bad value)
// throws rats::Error prefixed "<filename>:<line>:".
//
// `emit_scenario` renders a spec in canonical form: fixed section and
// key order, only the keys relevant to the chosen source/preset,
// canonical number formatting.  parse(emit(spec)) reproduces the spec,
// and emit is byte-stable across the round trip — the property the
// trace replay checker and the round-trip tests build on.
#pragma once

#include <iosfwd>
#include <string>

#include "scenario/spec.hpp"

namespace rats::scenario {

/// Parses a scenario; `filename` only labels error messages.
ScenarioSpec parse_scenario(std::istream& in,
                            const std::string& filename = "<scenario>");

/// Parses a scenario from text (convenience for tests and the trace
/// replay checker).
ScenarioSpec parse_scenario_string(const std::string& text,
                                   const std::string& filename = "<scenario>");

/// Loads a `.rats` file; throws rats::Error if unreadable.
ScenarioSpec load_scenario(const std::string& path);

/// Canonical text form (see above).
std::string emit_scenario(const ScenarioSpec& spec);

}  // namespace rats::scenario
