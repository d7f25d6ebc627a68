// Tests for the unified observability layer (src/obs): registry
// semantics (gating, one-name-one-kind, stability split), run-to-run
// determinism of the stable counter section, byte-neutrality of the
// report renderers when metrics are off, Chrome trace-event export
// well-formedness (every B has an E, timestamps monotonic per tid),
// the heartbeat line format, and the metrics snapshot JSON shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "report/model.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"

namespace rats {
namespace {

/// Restores the process-wide obs switches on scope exit so tests never
/// leak enablement into suites that expect the byte-neutral default.
struct ObsGuard {
  ObsGuard()
      : metrics(obs::metrics_enabled()),
        profiling(obs::profiling_enabled()) {}
  ~ObsGuard() {
    obs::set_metrics_enabled(metrics);
    obs::set_profiling_enabled(profiling);
  }
  bool metrics;
  bool profiling;
};

std::uint64_t stable_counter(const obs::Snapshot& snap,
                             const std::string& name) {
  for (const auto& v : snap.counters)
    if (v.name == name) return v.value;
  return 0;
}

scenario::ScenarioSpec tiny_fig2_spec() {
  scenario::ScenarioSpec spec = scenario::load_scenario(
      std::string(RATS_SOURCE_DIR) + "/scenarios/fig2.rats");
  spec.workload.corpus.samples_random = 0;
  spec.workload.corpus.samples_kernel = 1;
  spec.workload.cap_per_family = 2;
  spec.threads = 1;
  return spec;
}

// ---- registry semantics ------------------------------------------------

TEST(ObsRegistryTest, InstrumentsAreGatedOnTheEnableFlag) {
  ObsGuard guard;
  obs::Counter& c = obs::counter("test/gated_counter");
  obs::Gauge& g = obs::gauge("test/gated_gauge");
  obs::Timer& t = obs::timer("test/gated_timer");
  obs::Histogram& h = obs::histogram("test/gated_hist", 4);
  c.reset();
  g.reset();
  t.reset();
  h.reset();

  obs::set_metrics_enabled(false);
  c.inc();
  g.set(7);
  t.add_ns(1000);
  h.record(2);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(t.total_ns(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
  // add_always bypasses the gate (the simulated_run_count contract).
  c.add_always(3);
  EXPECT_EQ(c.value(), 3u);

  obs::set_metrics_enabled(true);
  c.add(2);
  g.set(7);
  t.add_ns(1000);
  h.record(2);
  h.record(99);  // out of range: dropped, not UB
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(t.total_ns(), 1000u);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
}

TEST(ObsRegistryTest, RegistrationIsIdempotentPerName) {
  obs::Counter& a = obs::counter("test/same_counter");
  obs::Counter& b = obs::counter("test/same_counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = obs::histogram("test/same_hist", 8);
  obs::Histogram& hb = obs::histogram("test/same_hist", 8);
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistryTest, OneNameRegistersAsExactlyOneKind) {
  obs::counter("test/kind_clash");
  EXPECT_THROW(obs::gauge("test/kind_clash"), Error);
  EXPECT_THROW(obs::timer("test/kind_clash"), Error);
  EXPECT_THROW(obs::histogram("test/kind_clash", 4), Error);
  obs::histogram("test/bucket_clash", 4);
  EXPECT_THROW(obs::histogram("test/bucket_clash", 5), Error);
}

TEST(ObsRegistryTest, SnapshotSplitsByStabilityAndSortsByName) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::counter("test/stable_b").add(1);
  obs::counter("test/stable_a").add(2);
  obs::counter("test/volatile_a", obs::Stability::Volatile).add(3);
  const obs::Snapshot snap = obs::snapshot();

  EXPECT_EQ(stable_counter(snap, "test/stable_a"), 2u);
  for (const auto& v : snap.counters) EXPECT_NE(v.name, "test/volatile_a");
  bool found_volatile = false;
  for (const auto& v : snap.volatile_counters)
    if (v.name == "test/volatile_a") found_volatile = true;
  EXPECT_TRUE(found_volatile);

  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

// ---- determinism of the stable section ---------------------------------

TEST(ObsRegistryTest, StableCountersAreRunToRunDeterministic) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const auto spec = tiny_fig2_spec();

  const auto deltas = [&] {
    const obs::Snapshot before = obs::snapshot();
    (void)scenario::build_report(spec);
    const obs::Snapshot after = obs::snapshot();
    std::map<std::string, std::uint64_t> d;
    for (const auto& v : after.counters)
      d[v.name] = v.value - stable_counter(before, v.name);
    return d;
  };

  const auto first = deltas();
  const auto second = deltas();
  EXPECT_EQ(first, second)
      << "stable counters must pin byte-for-byte across identical runs";
  EXPECT_GT(first.at("exp/runs_simulated"), 0u);
  EXPECT_GT(first.at("sim/tasks_executed"), 0u);
}

// ---- byte-neutrality of the report renderers ---------------------------

TEST(ObsReportTest, RenderersIgnoreMetricsWhenSectionIsEmpty) {
  ObsGuard guard;
  obs::set_metrics_enabled(false);
  const report::ReportModel model = scenario::build_report(tiny_fig2_spec());
  EXPECT_TRUE(model.metrics.empty());
  const std::string json = report::render_json(model);
  const std::string csv = report::render_csv(model);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(csv.find("# metrics"), std::string::npos);
}

TEST(ObsReportTest, RenderersCarryMetricsWhenPresent) {
  report::ReportModel model = scenario::build_report(tiny_fig2_spec());
  const std::string json_without = report::render_json(model);
  const std::string csv_without = report::render_csv(model);

  model.metrics.push_back({"exp/runs_simulated", 9, true});
  model.metrics.push_back({"redist/plan/hits", 42, false});
  const std::string json = report::render_json(model);
  const std::string csv = report::render_csv(model);

  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"exp/runs_simulated\":9"), std::string::npos);
  EXPECT_NE(json.find("\"volatile_metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"redist/plan/hits\":42"), std::string::npos);
  EXPECT_NE(csv.find("# metrics"), std::string::npos);
  EXPECT_NE(csv.find("exp/runs_simulated,9,1"), std::string::npos);
  EXPECT_NE(csv.find("redist/plan/hits,42,0"), std::string::npos);

  // The metrics section is strictly additive: everything before it is
  // the byte-identical metrics-off document.
  EXPECT_EQ(json.compare(0, json_without.size() - std::string("}\n").size(),
                         json_without, 0,
                         json_without.size() - std::string("}\n").size()),
            0);
  EXPECT_EQ(csv.compare(0, csv_without.size(), csv_without), 0);
}

// ---- Chrome trace-event export -----------------------------------------

/// Minimal line-oriented reader for the one-event-per-line trace JSON.
struct TraceEvent {
  char ph = '?';
  std::uint64_t tid = 0;
  double ts = 0;
  std::string name;
};

std::vector<TraceEvent> parse_trace_events(const std::string& json) {
  std::vector<TraceEvent> events;
  std::istringstream in(json);
  std::string line;
  const auto field = [&](const std::string& key) -> std::string {
    const auto at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " missing in: " << line;
    std::size_t begin = at + key.size() + 3;
    if (line[begin] == '"') {
      ++begin;
      return line.substr(begin, line.find('"', begin) - begin);
    }
    return line.substr(begin, line.find_first_of(",}", begin) - begin);
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\":") == std::string::npos) continue;
    TraceEvent e;
    e.ph = field("ph")[0];
    e.tid = std::stoull(field("tid"));
    e.ts = std::stod(field("ts"));
    e.name = field("name");
    events.push_back(e);
  }
  return events;
}

TEST(ObsSpanTest, ExportIsBalancedAndMonotonicPerThread) {
  ObsGuard guard;
  obs::set_profiling_enabled(true);
  obs::clear_spans();
  {
    obs::PhaseTimer outer("outer");
    {
      obs::PhaseTimer inner("inner");
    }
    std::thread worker([] {
      obs::PhaseTimer span("worker_span");
    });
    worker.join();
  }
  EXPECT_EQ(obs::span_count(), 3u);

  const std::string json = obs::spans_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",", 0), 0u);
  const auto events = parse_trace_events(json);
  ASSERT_EQ(events.size(), 6u);

  std::map<std::uint64_t, std::vector<std::string>> stacks;
  std::map<std::uint64_t, double> last_ts;
  double min_ts = 1e18;
  for (const auto& e : events) {
    min_ts = std::min(min_ts, e.ts);
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end())
      EXPECT_GE(e.ts, it->second) << "timestamps must be monotonic per tid";
    last_ts[e.tid] = e.ts;
    if (e.ph == 'B') {
      stacks[e.tid].push_back(e.name);
    } else {
      ASSERT_EQ(e.ph, 'E');
      ASSERT_FALSE(stacks[e.tid].empty()) << "E without matching B";
      EXPECT_EQ(stacks[e.tid].back(), e.name);
      stacks[e.tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  EXPECT_EQ(min_ts, 0.0) << "timestamps must be rebased to the earliest event";
  EXPECT_EQ(last_ts.size(), 2u) << "worker thread must export its own tid";

  obs::clear_spans();
  EXPECT_EQ(obs::span_count(), 0u);
}

TEST(ObsSpanTest, DisabledSpansRecordNothing) {
  ObsGuard guard;
  obs::set_profiling_enabled(false);
  obs::clear_spans();
  {
    obs::PhaseTimer span("never_recorded");
  }
  EXPECT_EQ(obs::span_count(), 0u);
}

TEST(ObsSpanTest, OpenSpansAreClosedAtExportTime) {
  ObsGuard guard;
  obs::set_profiling_enabled(true);
  obs::clear_spans();
  obs::span_begin("still_open");
  const auto events = parse_trace_events(obs::spans_json());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'B');
  EXPECT_EQ(events[1].ph, 'E');
  EXPECT_EQ(events[1].name, "still_open");
  obs::span_end();
  obs::clear_spans();
}

// ---- heartbeat line format ---------------------------------------------

TEST(ObsProgressTest, LineFormatIsPinned) {
  EXPECT_EQ(obs::ProgressMeter::line("runs", 142, 900, 2.3162),
            "rats: 142/900 runs (15.8%) | 61.3/s | eta 12s");
  EXPECT_EQ(obs::ProgressMeter::line("runs", 0, 900, 0.0),
            "rats: 0/900 runs (0.0%) | 0.0/s");
  EXPECT_EQ(obs::ProgressMeter::line("runs", 900, 900, 10.0),
            "rats: 900/900 runs (100.0%) | 90.0/s");
  // Unknown total: no percentage, no ETA.
  EXPECT_EQ(obs::ProgressMeter::line("specs", 5, 0, 2.0),
            "rats: 5 specs | 2.5/s");
  // Long ETAs switch to m/h units.
  EXPECT_EQ(obs::ProgressMeter::line("runs", 1, 241, 1.0),
            "rats: 1/241 runs (0.4%) | 1.0/s | eta 4m00s");
  EXPECT_EQ(obs::ProgressMeter::line("runs", 1, 7201, 1.0),
            "rats: 1/7201 runs (0.0%) | 1.0/s | eta 2h00m");
}

// ---- metrics snapshot JSON ---------------------------------------------

TEST(ObsSnapshotJsonTest, ShapeAndMetaAreWellFormed) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::counter("test/snapshot_counter").add(11);
  const std::string json =
      obs::snapshot_json(obs::snapshot(), "fig2-quick", "fig2");

  EXPECT_EQ(json.rfind("{\"rats_metrics\":1,", 0), 0u);
  EXPECT_NE(json.find("\"scenario\":\"fig2-quick\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"fig2\""), std::string::npos);
  for (const char* key : {"\"hostname\":", "\"build\":", "\"git\":",
                          "\"created_unix\":", "\"counters\":{",
                          "\"volatile_counters\":{", "\"histograms\":{",
                          "\"gauges\":{", "\"timers\":{"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_NE(json.find("\"test/snapshot_counter\":11"), std::string::npos);

  const obs::BuildStamp stamp = obs::build_stamp();
  EXPECT_FALSE(stamp.hostname.empty());
  EXPECT_FALSE(stamp.build_type.empty());
  EXPECT_FALSE(stamp.git_describe.empty());
}

}  // namespace
}  // namespace rats
