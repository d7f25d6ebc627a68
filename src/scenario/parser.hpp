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
// The sections are scenario, platform, workload, algorithms, algorithm
// (repeatable), events, event (repeatable), sweep and output.  Their
// keys are the key lists in parser.cpp: one list per section, in
// canonical order, giving each key's type, value rule and the specs
// that read it.  README's grammar block annotates them.
//
// Every error (syntax, unknown section/key, wrong type, bad value, a
// section or key the spec does not read) throws rats::Error prefixed
// "<filename>:<line>:".  A key is unread when the spec's other values
// make it moot (fft-k without generator = "fft"), or when it gives an
// optional input its kind does not read (see `Input`, registry.hpp).
//
// `emit_scenario` renders a spec in canonical form: the read keys in
// list order, without the defaults that stay implicit, with canonical
// number formatting.  parse(emit(spec)) reproduces the spec, and emit
// is byte-stable across the round trip — the property the trace replay
// checker and the round-trip tests build on.
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
