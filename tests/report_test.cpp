// Tests for the structured report pipeline (src/report + the registry
// redesign): ReportModel round-trips — model → text renderer must equal
// the legacy stdout bytes pinned in scenarios/golden/kinds/ for every
// kind — the CSV/JSON renderers, the generic sweep kind, and the
// one-pass property of traced runs (report + trace from a single
// simulation pass, matching render_trace byte for byte).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "exp/runner.hpp"
#include "exp/session.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "trace/replay.hpp"

namespace rats {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string golden_dir() {
  return std::string(RATS_SOURCE_DIR) + "/scenarios/golden/kinds/";
}

/// The checked-in scenario file of a kind: its one copy of defaults.
scenario::ScenarioSpec kind_spec(const std::string& kind) {
  return scenario::load_scenario(std::string(RATS_SOURCE_DIR) +
                                 "/scenarios/" + kind + ".rats");
}

// ---- model → text ≡ legacy stdout, for every kind ----------------------

class ReportGolden : public testing::TestWithParam<const char*> {};

TEST_P(ReportGolden, TextRenderingMatchesLegacyStdout) {
  const std::string kind = GetParam();
  const scenario::ScenarioSpec spec =
      scenario::load_scenario(golden_dir() + kind + ".rats");
  const report::ReportModel model = scenario::build_report(spec);
  EXPECT_EQ(model.kind, spec.kind);
  const std::string text = report::render_text(model, spec.output.csv);
  EXPECT_EQ(text, read_file(golden_dir() + kind + ".txt"))
      << "text rendering drifted from the pre-pipeline bytes for " << kind;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReportGolden,
                         testing::Values("fig2", "fig3", "fig4", "fig5",
                                         "fig6", "fig7", "table1", "table2",
                                         "table3", "table4", "table5",
                                         "table6", "experiment", "single",
                                         "sweep", "robustness",
                                         "ablation_allocation",
                                         "ablation_sort",
                                         "ablation_contention"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- structured content ------------------------------------------------

scenario::ScenarioSpec tiny_fig2_spec() {
  scenario::ScenarioSpec spec = kind_spec("fig2");
  spec.workload.corpus.samples_random = 0;
  spec.workload.corpus.samples_kernel = 1;
  spec.workload.cap_per_family = 2;
  spec.threads = 1;
  return spec;
}

TEST(ReportModelTest, Fig2CarriesTypedTablesAndSeries) {
  const report::ReportModel model = scenario::build_report(tiny_fig2_spec());
  const report::TableModel* summary = model.find_table("summary");
  ASSERT_NE(summary, nullptr);
  ASSERT_EQ(summary->columns.size(), 5u);
  EXPECT_EQ(summary->columns[0].name, "strategy");
  EXPECT_EQ(summary->columns[1].type, report::ColumnType::Number);
  ASSERT_EQ(summary->rows.size(), 2u);  // delta, time-cost
  EXPECT_FALSE(summary->rows[0][0].numeric);
  EXPECT_TRUE(summary->rows[0][1].numeric);
  // The typed value matches its legacy rendering.
  EXPECT_EQ(fmt(summary->rows[0][1].num, 3), summary->rows[0][1].text);

  int series = 0;
  for (const auto& item : model.items)
    if (item.kind == report::Item::Kind::Series) {
      ++series;
      EXPECT_FALSE(item.series.values.empty());
    }
  EXPECT_EQ(series, 2);
}

TEST(ReportModelTest, MultiClusterTablesNameTheSpecClusters) {
  const auto tiny = [](const char* kind, std::vector<std::string> clusters) {
    scenario::ScenarioSpec spec = kind_spec(kind);
    spec.platform.presets = std::move(clusters);
    spec.workload.corpus.samples_random = 1;
    spec.workload.corpus.samples_kernel = 1;
    spec.workload.cap_per_family = 1;
    spec.threads = 1;
    return spec;
  };
  // Columns follow the spec's cluster list, in its order.
  const report::ReportModel table4 =
      scenario::build_report(tiny("table4", {"grelon", "chti"}));
  const report::TableModel* tuned = table4.find_table("tuned-parameters");
  ASSERT_NE(tuned, nullptr);
  ASSERT_EQ(tuned->columns.size(), 3u);
  EXPECT_EQ(tuned->columns[1].name, "grelon");
  EXPECT_EQ(tuned->columns[2].name, "chti");
  EXPECT_NE(report::render_text(table4).find("family \\ cluster"),
            std::string::npos);

  const report::ReportModel table5 =
      scenario::build_report(tiny("table5", {"grillon"}));
  EXPECT_NE(report::render_text(table5).find(
                "Table V: pairwise comparison (grillon)\n"),
            std::string::npos);
}

TEST(ReportRenderTest, CsvAndJsonCarryEveryTable) {
  const report::ReportModel model = scenario::build_report(tiny_fig2_spec());
  const std::string csv = report::render_csv(model);
  EXPECT_NE(csv.find("# table summary"), std::string::npos);
  EXPECT_NE(csv.find("# series relative-makespan/delta"), std::string::npos);
  EXPECT_NE(csv.find("percent,value"), std::string::npos);

  const std::string json = report::render_json(model);
  EXPECT_EQ(json.rfind("{\"rats_report\":1,", 0), 0u);
  EXPECT_NE(json.find("\"type\":\"table\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"series\""), std::string::npos);
  // Text notes embed their newlines escaped, never raw.
  EXPECT_EQ(json.find("\n  paper"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

// ---- JSON round trip (parse_json, the serve payload transport) ---------

TEST(ReportJsonRoundTrip, HandBuiltModelSurvivesByteStable) {
  report::ReportModel model;
  model.name = "round \"trip\"\nname";  // escapes in the header fields
  model.kind = "experiment";
  model.heading("A heading");
  model.text("verbatim text\n  with a \"quoted\" tab\there\n");
  report::TableModel& table =
      model.table("cells", {{"label", report::ColumnType::Text},
                            {"value", report::ColumnType::Number}});
  table.rows.push_back({report::cell("plain"), report::cell(1.5, "1.500")});
  table.rows.push_back(
      {report::cell(""), report::cell(-0.0625, "-6.25e-02")});
  table.preformatted = "exact\tlegacy\nbytes\n";
  table.csv_echo = false;
  model.series("curve/one", "one", {0.25, 1.0, 2.0});
  model.scalar("best/x", 0.1);          // not exactly representable
  model.scalar("note", "text payload");
  model.metrics.push_back({"runs", 9, true});
  model.metrics.push_back({"pool/steals", 3, false});

  const std::string once = report::render_json(model);
  const report::ReportModel parsed = report::parse_json(once);
  EXPECT_EQ(report::render_json(parsed), once);
  // The typed content survives, not just the bytes.
  EXPECT_EQ(parsed.name, model.name);
  const report::TableModel* cells = parsed.find_table("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->rows.size(), 2u);
  EXPECT_TRUE(cells->rows[1][1].numeric);
  EXPECT_EQ(cells->rows[1][1].num, -0.0625);
  ASSERT_EQ(parsed.metrics.size(), 2u);
}

TEST(ReportJsonRoundTrip, ScenarioReportSurvivesByteStable) {
  const report::ReportModel model = scenario::build_report(tiny_fig2_spec());
  const std::string once = report::render_json(model);
  EXPECT_EQ(report::render_json(report::parse_json(once)), once);
}

TEST(ReportJsonRoundTrip, RejectsForeignDocuments) {
  EXPECT_THROW(report::parse_json("not json at all"), Error);
  EXPECT_THROW(report::parse_json("{\"rats_report\":2,\"items\":[]}"), Error);
  EXPECT_THROW(report::parse_json("{\"name\":\"x\"}"), Error);
  EXPECT_THROW(report::parse_json(""), Error);
}

TEST(ReportRenderTest, RenderersAreDeterministic) {
  const auto spec = tiny_fig2_spec();
  const report::ReportModel a = scenario::build_report(spec);
  const report::ReportModel b = scenario::build_report(spec);
  EXPECT_EQ(report::render_text(a, true), report::render_text(b, true));
  EXPECT_EQ(report::render_csv(a), report::render_csv(b));
  EXPECT_EQ(report::render_json(a), report::render_json(b));
}

// ---- generic sweep kind ------------------------------------------------

scenario::ScenarioSpec tiny_sweep_spec() {
  scenario::ScenarioSpec spec = kind_spec("sweep");
  spec.name = "tiny-sweep";
  spec.workload.corpus.samples_random = 0;
  spec.workload.corpus.samples_kernel = 1;
  spec.workload.cap_per_family = 1;
  spec.sweep.mindeltas = {-0.5, 0.0};
  spec.sweep.maxdeltas = {1.0};
  spec.sweep.packings = {true, false};
  spec.threads = 1;
  return spec;
}

TEST(SweepKindTest, GridCrossesEveryAxisInOrder) {
  const report::ReportModel model = scenario::build_report(tiny_sweep_spec());
  const report::TableModel* table = model.find_table("sweep");
  ASSERT_NE(table, nullptr);
  // Axes in field order (mindelta, maxdelta, packing) + the metric.
  ASSERT_EQ(table->columns.size(), 4u);
  EXPECT_EQ(table->columns[0].name, "mindelta");
  EXPECT_EQ(table->columns[1].name, "maxdelta");
  EXPECT_EQ(table->columns[2].name, "packing");
  EXPECT_EQ(table->columns[3].name, "avg relative makespan");
  ASSERT_EQ(table->rows.size(), 4u);  // 2 x 1 x 2, last axis fastest
  EXPECT_EQ(table->rows[0][0].text, "-0.50");
  EXPECT_EQ(table->rows[0][2].text, "true");
  EXPECT_EQ(table->rows[1][2].text, "false");
  EXPECT_EQ(table->rows[2][0].text, "0.00");
  for (const auto& row : table->rows) EXPECT_TRUE(row[3].numeric);

  // Best-point scalars cover every axis plus the metric.
  int best_scalars = 0;
  for (const auto& item : model.items)
    if (item.kind == report::Item::Kind::Scalar &&
        item.scalar.id.rfind("best/", 0) == 0)
      ++best_scalars;
  EXPECT_EQ(best_scalars, 4);
}

TEST(SweepKindTest, RegistryRejectsEmptyGrids) {
  scenario::ScenarioSpec spec = kind_spec("sweep");
  spec.sweep = scenario::SweepSpec{};
  EXPECT_THROW(scenario::build_report(spec), Error);
}

// ---- ablation kinds ----------------------------------------------------

TEST(AblationKinds, RejectAlgorithmListsWithoutTheirShape) {
  // ablation_sort compares strategy a with a + k: HCPA, k strategies,
  // then the same k strategies without the secondary sort.
  scenario::ScenarioSpec sort = kind_spec("ablation_sort");
  sort.algorithms.algos.pop_back();
  EXPECT_THROW(scenario::build_report(sort), Error);
  sort = kind_spec("ablation_sort");
  sort.algorithms.algos[3].options.secondary_sort = true;
  EXPECT_THROW(scenario::build_report(sort), Error);
  sort = kind_spec("ablation_sort");
  sort.algorithms = scenario::AlgorithmsSpec{};  // naive: no unsorted twins
  EXPECT_THROW(scenario::build_report(sort), Error);
  // ablation_allocation compares against its first algorithm, HCPA.
  scenario::ScenarioSpec allocation = kind_spec("ablation_allocation");
  std::swap(allocation.algorithms.algos[0], allocation.algorithms.algos[1]);
  EXPECT_THROW(scenario::build_report(allocation), Error);
}

// ---- one pass: report + trace from a single simulation ----------------

/// Counts session callbacks and forwards nothing (no tracing).
class CountingSession final : public RunSession {
 public:
  void begin_matrix(std::size_t runs) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++matrices_;
    announced_ = runs;
  }
  TraceSink* begin_run(std::size_t, const RunMeta& meta) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++begun_;
    last_meta_ = meta;
    return nullptr;
  }
  void end_run(std::size_t, const RunOutcome& outcome) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++ended_;
    last_makespan_ = outcome.makespan;
  }

  int matrices_ = 0;
  std::size_t announced_ = 0;
  int begun_ = 0;
  int ended_ = 0;
  RunMeta last_meta_;
  double last_makespan_ = 0;

 private:
  std::mutex mu_;
};

TEST(OnePassTraceTest, SessionSeesEveryRunExactlyOnce) {
  const auto spec = tiny_fig2_spec();
  CountingSession session;
  const std::uint64_t before = simulated_run_count();
  const report::ReportModel traced = scenario::build_report(spec, &session);
  const std::uint64_t simulated = simulated_run_count() - before;

  EXPECT_EQ(session.matrices_, 1);
  EXPECT_EQ(session.announced_, 9u);  // 3 entries x 3 algorithms
  EXPECT_EQ(session.begun_, 9);
  EXPECT_EQ(session.ended_, 9);
  EXPECT_EQ(simulated, 9u) << "the matrix must be simulated exactly once";
  EXPECT_EQ(session.last_meta_.cluster, "grillon");
  EXPECT_GT(session.last_makespan_, 0);

  // Attaching the session does not perturb the report.
  const report::ReportModel untraced = scenario::build_report(spec);
  EXPECT_EQ(report::render_text(traced, true),
            report::render_text(untraced, true));
}

TEST(OnePassTraceTest, RunWithTracePathMatchesRenderTrace) {
  scenario::ScenarioSpec spec = tiny_fig2_spec();
  spec.name = "one-pass";
  const std::string trace_path = testing::TempDir() + "one_pass_trace.jsonl";
  const std::string csv_path = testing::TempDir() + "one_pass.csv";

  scenario::RunOptions options;
  options.trace_path = trace_path;
  options.report_csv_path = csv_path;
  const std::uint64_t before = simulated_run_count();
  scenario::run(spec, options);  // report goes to stdout (tiny)
  EXPECT_EQ(simulated_run_count() - before, 9u)
      << "a traced run must not re-simulate for the trace";

  // The streamed trace is byte-identical to the reference renderer and
  // passes the replay checker.
  EXPECT_EQ(read_file(trace_path), scenario::render_trace(spec, 1));
  const ReplayReport report = verify_trace(trace_path, 1);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 9u);

  // The CSV artefact is the model's CSV rendering.
  EXPECT_EQ(read_file(csv_path),
            report::render_csv(scenario::build_report(spec)));
  std::remove(trace_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(OnePassTraceTest, SessionOnUntraceableKindThrows) {
  CountingSession session;
  EXPECT_THROW(
      scenario::build_report(kind_spec("table1"), &session),
      Error);
}

}  // namespace
}  // namespace rats
