// Unit tests for structured simulation tracing (src/trace): event
// capture through the simulator and fluid network, the JSON-lines and
// Gantt exporters, and the deterministic replay checker.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "daggen/kernels.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace rats {
namespace {

struct Traced {
  TaskGraph graph;
  TraceSink sink;
  SimulationResult result;
};

Traced traced_fft_run() {
  Traced t;
  Rng rng(7);
  t.graph = generate_fft_dag(4, rng);
  const Cluster cluster =
      Cluster::flat("flat8", 8, 3e9, 100e-6, kGigabitPerSecond);
  const Schedule schedule = build_schedule(t.graph, cluster, {});
  SimulatorOptions options;
  options.trace = &t.sink;
  t.result = simulate(t.graph, schedule, cluster, options);
  return t;
}

TEST(TraceSinkTest, CapturesTaskAndRedistributionIntervals) {
  const Traced t = traced_fft_run();
  const auto& events = t.sink.events();
  ASSERT_FALSE(events.empty());

  int starts = 0, finishes = 0, redist_open = 0, redist_done = 0, solves = 0,
      rates = 0;
  Seconds last = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.time, last - 1e-12);  // non-decreasing stream
    last = std::max(last, e.time);
    switch (e.kind) {
      case TraceEventKind::TaskStart: ++starts; break;
      case TraceEventKind::TaskFinish: ++finishes; break;
      case TraceEventKind::RedistStart: ++redist_open; break;
      case TraceEventKind::RedistDone: ++redist_done; break;
      case TraceEventKind::SolveComponent: ++solves; break;
      case TraceEventKind::RateChange: ++rates; break;
    }
  }
  EXPECT_EQ(starts, t.graph.num_tasks());
  EXPECT_EQ(finishes, t.graph.num_tasks());
  EXPECT_EQ(redist_open, t.graph.num_edges());
  EXPECT_EQ(redist_done, t.graph.num_edges());
  EXPECT_GT(solves, 0);
  EXPECT_GT(rates, 0);

  // Untraced simulation is unaffected (and the sink is opt-in).
  Traced again = traced_fft_run();
  EXPECT_DOUBLE_EQ(again.result.makespan, t.result.makespan);
}

TEST(TraceSinkTest, EventLineFormat) {
  TraceEvent e;
  e.time = 0.5;
  e.kind = TraceEventKind::TaskStart;
  e.a = 3;
  e.b = 2;
  EXPECT_EQ(trace_event_line(e),
            "{\"t\":0.5,\"ev\":\"task_start\",\"a\":3,\"b\":2,\"v\":0}");
  e.kind = TraceEventKind::RateChange;
  e.value = 1.0 / 3.0;
  EXPECT_NE(trace_event_line(e).find("\"v\":0.33333333333333331"),
            std::string::npos);
}

TEST(TraceSinkTest, JsonEscaping) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- delta encoding ----------------------------------------------------

TEST(TraceEncodingTest, RateRecordsDropRepeatedFields) {
  TraceLineEncoder encoder;
  std::string out;
  TraceEvent solve;
  solve.time = 1.5;
  solve.kind = TraceEventKind::SolveComponent;
  solve.a = 0;
  solve.b = 4;
  encoder.append(solve, out);

  TraceEvent rate;
  rate.kind = TraceEventKind::RateChange;
  rate.time = 1.5;  // same instant as the solve
  rate.a = 7;
  rate.value = 125e6;
  encoder.append(rate, out);
  rate.a = 8;  // same time, same fair share
  encoder.append(rate, out);
  rate.a = 9;
  rate.time = 2.0;  // rate flush at a later event
  rate.value = 62.5e6;
  encoder.append(rate, out);

  const std::string expected_tail =
      "{\"r\":7,\"v\":125000000}\n"
      "{\"r\":8}\n"
      "{\"r\":9,\"t\":2,\"v\":62500000}\n";
  EXPECT_NE(out.find(expected_tail), std::string::npos) << out;
}

TEST(TraceEncodingTest, EncodeDecodeRoundTripsARealRunBitExactly) {
  const Traced t = traced_fft_run();
  TraceLineEncoder encoder;
  std::string encoded;
  std::string plain;
  for (const TraceEvent& e : t.sink.events()) {
    encoder.append(e, encoded);
    plain += trace_event_line(e);
    plain += '\n';
  }
  // The stream that dominates trace size shrinks.
  EXPECT_LT(encoded.size(), plain.size());

  TraceLineDecoder decoder;
  std::size_t index = 0;
  std::size_t at = 0;
  while (at < encoded.size()) {
    const std::size_t end = encoded.find('\n', at);
    ASSERT_NE(end, std::string::npos);
    const std::string line = encoded.substr(at, end - at);
    at = end + 1;
    TraceEvent decoded;
    ASSERT_TRUE(decoder.decode(line, decoded)) << line;
    ASSERT_LT(index, t.sink.events().size());
    const TraceEvent& original = t.sink.events()[index++];
    EXPECT_EQ(std::memcmp(&decoded.time, &original.time, sizeof(double)), 0);
    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.a, original.a);
    EXPECT_EQ(decoded.b, original.b);
    EXPECT_EQ(std::memcmp(&decoded.value, &original.value, sizeof(double)),
              0);
  }
  EXPECT_EQ(index, t.sink.events().size());
}

TEST(TraceEncodingTest, DecoderRejectsMalformedAndOrphanLines) {
  TraceLineDecoder decoder;
  TraceEvent out;
  // A bare {"r":...} with no prior time/value has nothing to inherit.
  EXPECT_FALSE(decoder.decode("{\"r\":3}", out));
  EXPECT_FALSE(decoder.decode("{\"r\":3,\"v\":1}", out));  // still no time
  EXPECT_FALSE(decoder.decode("not json", out));
  EXPECT_FALSE(decoder.decode("{\"t\":1,\"ev\":\"nope\",\"a\":1,\"b\":1,\"v\":0}",
                              out));
  EXPECT_TRUE(
      decoder.decode("{\"t\":1,\"ev\":\"rate\",\"a\":1,\"b\":-1,\"v\":5}", out));
  EXPECT_TRUE(decoder.decode("{\"r\":3}", out));  // now it inherits
  EXPECT_EQ(out.a, 3);
  EXPECT_EQ(out.time, 1.0);
  EXPECT_EQ(out.value, 5.0);
}

// ---- streaming writer --------------------------------------------------

TEST(TraceWriterTest, OutOfOrderCompletionsFlushInRunOrder) {
  std::ostringstream out;
  TraceWriter writer(out, "w", "experiment", "[scenario]\nkind=...\n");
  writer.begin_matrix(3);
  TraceSink* s0 = writer.begin_run(0, "e0", "HCPA", "c");
  TraceSink* s1 = writer.begin_run(1, "e0", "delta", "c");
  TraceSink* s2 = writer.begin_run(2, "e0", "time-cost", "c");
  s0->record(0.5, TraceEventKind::TaskStart, 0, 1);
  s1->record(1.5, TraceEventKind::TaskStart, 0, 1);
  s2->record(2.5, TraceEventKind::TaskStart, 0, 1);
  // Complete out of order: nothing before run 0 ends may flush.
  writer.end_run(2, 30.0);
  writer.end_run(0, 10.0);
  writer.end_run(1, 20.0);
  writer.finish();
  const std::string text = out.str();
  const std::size_t r0 = text.find("{\"run\":0,");
  const std::size_t r1 = text.find("{\"run\":1,");
  const std::size_t r2 = text.find("{\"run\":2,");
  ASSERT_NE(r0, std::string::npos);
  ASSERT_NE(r1, std::string::npos);
  ASSERT_NE(r2, std::string::npos);
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  EXPECT_EQ(writer.total_events(), 3u);
  EXPECT_NE(text.find("\"makespan\":30"), std::string::npos);
  EXPECT_EQ(text.rfind("{\"rats_trace\":2,", 0), 0u);
}

TEST(TraceWriterTest, FinishRejectsUnendedRuns) {
  std::ostringstream out;
  TraceWriter writer(out, "w", "experiment", "spec");
  writer.begin_matrix(1);
  writer.begin_run(0, "e", "a", "c");
  EXPECT_THROW(writer.finish(), Error);
}

TEST(TraceGanttTest, RendersSortedIntervals) {
  const Traced t = traced_fft_run();
  std::vector<std::string> names;
  for (TaskId id = 0; id < t.graph.num_tasks(); ++id)
    names.push_back(t.graph.task(id).name);
  const std::string gantt = trace_gantt(t.sink.events(), &names);
  EXPECT_NE(gantt.find("interval"), std::string::npos);
  EXPECT_NE(gantt.find("duration"), std::string::npos);
  EXPECT_NE(gantt.find(names.front()), std::string::npos);
  EXPECT_NE(gantt.find("edge 0"), std::string::npos);
}

// ---- replay ------------------------------------------------------------

scenario::ScenarioSpec tiny_experiment_spec() {
  scenario::ScenarioSpec spec = scenario::load_scenario(
      std::string(RATS_SOURCE_DIR) + "/scenarios/experiment.rats");
  spec.name = "tiny";
  spec.workload.count = 1;
  spec.workload.dag.num_tasks = 20;
  spec.platform.presets.clear();
  spec.platform.name = "flat6";
  spec.platform.nodes = 6;
  spec.platform.gflops = 3.0;
  return spec;
}

scenario::ScenarioSpec tiny_hierarchical_spec() {
  scenario::ScenarioSpec spec = tiny_experiment_spec();
  spec.name = "tiny-hier";
  spec.platform.nodes = 0;
  spec.platform.name = "hier";
  spec.platform.cabinet_nodes = {2, 4, 3};
  return spec;
}

std::string write_temp_trace(const scenario::ScenarioSpec& spec,
                             const char* filename) {
  const std::string path = testing::TempDir() + filename;
  std::ofstream out(path, std::ios::binary);
  out << scenario::render_trace(spec, 1);
  out.close();
  return path;
}

TEST(TraceReplayTest, RenderIsThreadCountIndependent) {
  const auto spec = tiny_experiment_spec();
  EXPECT_EQ(scenario::render_trace(spec, 1), scenario::render_trace(spec, 4));
}

TEST(TraceReplayTest, VerifiesItsOwnRender) {
  const std::string path =
      write_temp_trace(tiny_experiment_spec(), "tiny_trace.jsonl");
  const ReplayReport report = verify_trace(path, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 3u);  // 1 workload x naive's 3 algorithms
  EXPECT_GT(report.events, 0u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, VerifiesHierarchicalScenario) {
  const std::string path =
      write_temp_trace(tiny_hierarchical_spec(), "hier_trace.jsonl");
  const ReplayReport report = verify_trace(path, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 3u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, DetectsTampering) {
  const std::string path =
      write_temp_trace(tiny_experiment_spec(), "tampered_trace.jsonl");
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Flip the first task_start event into a task id that never ran.
  const std::size_t at = text.find("\"ev\":\"task_start\",\"a\":");
  ASSERT_NE(at, std::string::npos);
  text[at + 22] = text[at + 22] == '9' ? '8' : '9';
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  const ReplayReport report = verify_trace(path, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("diverges from replay"), std::string::npos)
      << report.error;
  std::remove(path.c_str());
}

TEST(TraceReplayTest, RejectsNonTraces) {
  const std::string path = testing::TempDir() + "not_a_trace.jsonl";
  std::ofstream out(path);
  out << "{\"something\":\"else\"}\n";
  out.close();
  const ReplayReport report = verify_trace(path, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("not a RATS trace"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(verify_trace("/nonexistent/trace.jsonl").ok);
}

TEST(TraceReplayTest, UntraceableKindsRefuse) {
  auto spec = scenario::load_scenario(std::string(RATS_SOURCE_DIR) +
                                     "/scenarios/table4.rats");
  EXPECT_THROW(scenario::render_trace(spec, 1), Error);
}

}  // namespace
}  // namespace rats
