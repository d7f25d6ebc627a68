// Renderers over report models (see report/model.hpp for the pipeline
// overview): one structured ReportModel in, one output format out.
#pragma once

#include <string>

#include "report/model.hpp"

namespace rats::report {

/// The paper-style text report (pinned by scenarios/golden/kinds/).
/// With `csv_echo`, every table's CSV form follows its text form
/// (`rats run --csv`, `[output] csv = true`).
std::string render_text(const ReportModel& model, bool csv_echo = false);

/// Machine-readable CSV: every table, series and scalar as its own
/// `# <type> <id>` section, blank-line separated.
std::string render_csv(const ReportModel& model);

/// The full model as one JSON document (typed cells carry numbers,
/// doubles printed with round-trip precision).
std::string render_json(const ReportModel& model);

/// Inverse of render_json: rebuilds a ReportModel from its JSON
/// document.  The JSON form carries typed values but not the legacy
/// text rendering of numeric cells, so the guaranteed identity is
/// render_json(parse_json(render_json(m))) == render_json(m) — doubles
/// survive bitwise through the %.17g round trip and metric values stay
/// exact int64.  This is the ingestion side of the serve merge path
/// (src/serve/), where worker shard payloads travel as report JSON.
/// Throws rats::Error on malformed or non-report input.
ReportModel parse_json(const std::string& text);

}  // namespace rats::report
