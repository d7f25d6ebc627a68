// Structured report models — the data layer of the experiment→report
// pipeline.
//
// Every scenario kind *returns* a ReportModel (named tables with typed
// columns, sorted-curve series, scalar summaries, and verbatim text
// notes) instead of printing; renderers (report/render.hpp) turn one
// model into the different output formats:
//
//   render_text  the paper-style stdout report.  Every formatted
//                fragment is captured at build time, so rendering is
//                pure concatenation; the golden-kinds suite pins its
//                bytes for every registry kind.
//   render_csv   machine-readable tables/series/scalars for plotting.
//   render_json  the full model as one JSON document.
//
// Items keep both the presentation (the exact cell text the aligned
// table shows) and, where meaningful, the typed value, so structured
// renderers never re-parse formatted strings.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace rats::report {

/// One table cell: the exact text the aligned table shows plus the
/// typed value when the cell is numeric.
struct Cell {
  std::string text;
  double num = 0;
  bool numeric = false;
};

/// A text cell.
inline Cell cell(std::string text) { return Cell{std::move(text), 0, false}; }
/// A numeric cell with its legacy rendering.
inline Cell cell(double value, std::string text) {
  return Cell{std::move(text), value, true};
}

enum class ColumnType { Text, Number };

struct Column {
  std::string name;
  ColumnType type = ColumnType::Text;
};

/// A named table.  `preformatted` carries the exact legacy text for
/// tables the binaries rendered with bespoke printf formatting (the
/// per-task timeline of kind "single"); when empty the text renderer
/// aligns the cells with rats::Table.  `csv_echo` mirrors the legacy
/// `--csv` behaviour of appending the CSV form right after the text
/// table on stdout.
struct TableModel {
  std::string id;
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows;
  std::string preformatted;
  bool csv_echo = true;
};

/// A sampled numeric series — the 21-point sorted percentile curves of
/// the paper's figures.
struct SeriesModel {
  std::string id;
  std::string label;
  std::vector<double> values;
};

/// A named scalar summary (best sweep point, a run's makespan, ...).
/// Data-only: scalars render in CSV/JSON but produce no text output.
struct ScalarModel {
  std::string id;
  double num = 0;
  bool numeric = false;
  std::string text;  ///< non-numeric payload (e.g. a parameter tuple)
};

/// One metric carried alongside the report — a registry counter/gauge
/// captured after the build (see src/obs/).  `stable` mirrors
/// obs::Stability: stable values are reproducible across identical
/// runs, volatile ones depend on thread scheduling.
struct MetricModel {
  std::string name;
  std::int64_t value = 0;
  bool stable = true;
};

/// One report item, in presentation order.
struct Item {
  enum class Kind { Heading, Text, Table, Series, Scalar };
  Kind kind = Kind::Text;
  std::string heading;  ///< Heading: the underlined title
  std::string text;     ///< Text: verbatim bytes, newlines included
  TableModel table;
  SeriesModel series;
  ScalarModel scalar;
};

/// The structured result of one scenario run.
class ReportModel {
 public:
  std::string name;  ///< scenario name
  std::string kind;  ///< scenario kind
  /// A deque so appends never move existing items: the reference
  /// `table()` returns stays valid while later items are added.
  std::deque<Item> items;
  /// Registry metrics captured for this run (empty unless the caller
  /// enabled metrics).  render_text ignores them; render_csv/
  /// render_json append a metrics section only when non-empty, so a
  /// metrics-off report renders byte-identically to one without the
  /// field.
  std::vector<MetricModel> metrics;

  /// Appends an underlined section heading.
  void heading(std::string title);
  /// Appends verbatim text (the exact bytes, with trailing newline).
  void text(std::string exact);
  /// Appends printf-formatted text.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void textf(const char* fmt, ...);
  /// Appends a table and returns it for row filling (the reference
  /// stays valid across later appends — see `items`).
  TableModel& table(std::string id, std::vector<Column> columns);
  /// Appends a sorted-curve series.
  void series(std::string id, std::string label, std::vector<double> values);
  /// Appends a numeric scalar summary.
  void scalar(std::string id, double value);
  /// Appends a textual scalar summary.
  void scalar(std::string id, std::string text);

  /// First table with the given id (nullptr when absent).
  const TableModel* find_table(const std::string& id) const;
};

}  // namespace rats::report
