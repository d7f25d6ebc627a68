// Tests for the platform event timeline: [events] parsing and
// validation, the simulator's fault semantics (fail-stop kills,
// hold/reschedule recovery, slowdown re-timing, same-instant batches),
// the empty-timeline identity the healthy goldens rely on, and the
// robustness kind's Table VI parity.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "platform/timeline.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"

namespace rats {
namespace {

Cluster cluster4() { return Cluster::flat("tl-test", 4, 1e9, 100e-6, 125e6); }

Schedule place(std::vector<std::vector<NodeId>> procs) {
  Schedule s;
  std::int64_t seq = 0;
  for (auto& p : procs) {
    TaskPlacement tp;
    tp.procs = std::move(p);
    tp.seq = seq++;
    s.placements.push_back(std::move(tp));
  }
  return s;
}

/// a -> b chain across two nodes (125 MB over one NIC pair).
TaskGraph chain_graph() {
  TaskGraph g;
  const TaskId a = g.add_task(Task{"a", 1e6, 1e9, 0.0});
  const TaskId b = g.add_task(Task{"b", 1e6, 1e9, 0.0});
  g.add_edge(a, b, 125e6);
  return g;
}

SimulationResult sim_with(const TaskGraph& g, const Schedule& s,
                          const Cluster& c, const PlatformTimeline* tl) {
  SimulatorOptions o;
  o.timeline = tl;
  return simulate(g, s, c, o);
}

PlatformEvent event(Seconds at, PlatformEventKind kind, NodeId node,
                    double factor = 1.0) {
  PlatformEvent e;
  e.at = at;
  e.kind = kind;
  e.node = node;
  e.factor = factor;
  return e;
}

// ---- wire names --------------------------------------------------------

TEST(TimelineNames, EventKindsRoundTrip) {
  for (PlatformEventKind kind :
       {PlatformEventKind::LinkCapacity, PlatformEventKind::NodeSlowdown,
        PlatformEventKind::NodeFail, PlatformEventKind::NodeRestart}) {
    bool ok = false;
    EXPECT_EQ(platform_event_kind_from(to_string(kind), ok), kind);
    EXPECT_TRUE(ok);
  }
  bool ok = true;
  platform_event_kind_from("node-explode", ok);
  EXPECT_FALSE(ok);
}

// ---- simulator semantics -----------------------------------------------

TEST(TimelineSim, NullAndEmptyTimelinesAreBitIdenticalToHealthy) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const auto healthy = simulate(g, s, c);
  const PlatformTimeline empty;
  const auto with_empty = sim_with(g, s, c, &empty);
  EXPECT_EQ(healthy.makespan, with_empty.makespan);
  EXPECT_EQ(healthy.total_work, with_empty.total_work);
  EXPECT_EQ(healthy.network_bytes, with_empty.network_bytes);
  EXPECT_EQ(with_empty.faults.tasks_killed, 0);
}

TEST(TimelineSim, SameInstantFailRestartIsANoOp) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const auto healthy = simulate(g, s, c);
  PlatformTimeline tl;
  tl.events = {event(0.5, PlatformEventKind::NodeFail, 0),
               event(0.5, PlatformEventKind::NodeRestart, 0)};
  const auto r = sim_with(g, s, c, &tl);
  // Same-timestamp events apply as one batch before any consequence is
  // drawn, so the restart cancels the failure bit-exactly.
  EXPECT_EQ(healthy.makespan, r.makespan);
  EXPECT_EQ(r.faults.tasks_killed, 0);
  EXPECT_EQ(r.faults.tasks_remapped, 0);
}

TEST(TimelineSim, SlowdownRetimesTheRunningTask) {
  TaskGraph g;
  g.add_task(Task{"solo", 1e6, 4e9, 0.0});
  const Cluster c = cluster4();
  const Schedule s = place({{0, 1}});
  // Healthy: 4e9 flops on 2 x 1e9 -> 2 s.  Node 0 at half speed from
  // t=1: the remaining 1 s of work takes 2 s -> makespan 3 s.
  PlatformTimeline tl;
  tl.events = {event(1.0, PlatformEventKind::NodeSlowdown, 0, 0.5)};
  const auto r = sim_with(g, s, c, &tl);
  EXPECT_NEAR(r.makespan, 3.0, 1e-9);
  EXPECT_EQ(r.faults.tasks_killed, 0);
}

TEST(TimelineSim, FactorOneSlowdownIsBitIdenticalToHealthy) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const auto healthy = simulate(g, s, c);
  PlatformTimeline tl;
  tl.events = {event(0.25, PlatformEventKind::NodeSlowdown, 0, 1.0)};
  const auto r = sim_with(g, s, c, &tl);
  EXPECT_EQ(healthy.makespan, r.makespan);
}

TEST(TimelineSim, RescheduleKillsAndRemapsOffTheFailedNode) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const auto healthy = simulate(g, s, c);
  PlatformTimeline tl;
  tl.on_fail = FailPolicy::Reschedule;
  tl.events = {event(0.5, PlatformEventKind::NodeFail, 0)};
  const auto r = sim_with(g, s, c, &tl);
  // Task a loses 0.5 s of progress and re-runs on a surviving node.
  EXPECT_GT(r.makespan, healthy.makespan);
  EXPECT_EQ(r.faults.tasks_killed, 1);
  EXPECT_EQ(r.faults.tasks_remapped, 1);
  EXPECT_GT(r.faults.capacity_seconds_lost, 0.0);
}

TEST(TimelineSim, HoldWaitsForTheRestart) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const auto healthy = simulate(g, s, c);
  PlatformTimeline tl;
  tl.on_fail = FailPolicy::Hold;
  tl.events = {event(0.5, PlatformEventKind::NodeFail, 0),
               event(2.0, PlatformEventKind::NodeRestart, 0)};
  const auto r = sim_with(g, s, c, &tl);
  // a re-runs on its original node after the restart: 2.0 + 1 s for a,
  // then the healthy transfer + b tail.
  EXPECT_NEAR(r.makespan, 2.0 + healthy.makespan, 1e-9);
  EXPECT_EQ(r.faults.tasks_killed, 1);
  EXPECT_EQ(r.faults.tasks_remapped, 0);
}

TEST(TimelineSim, HoldWithoutRestartStallsWithDiagnostic) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  PlatformTimeline tl;
  tl.on_fail = FailPolicy::Hold;
  tl.events = {event(0.5, PlatformEventKind::NodeFail, 0)};
  try {
    sim_with(g, s, c, &tl);
    FAIL() << "expected a stall error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no scheduled restart"),
              std::string::npos)
        << e.what();
  }
}

TEST(TimelineSim, ValidateRejectsBadSelectors) {
  const Cluster c = cluster4();
  PlatformTimeline tl;
  tl.events = {event(1.0, PlatformEventKind::NodeFail, 99)};
  EXPECT_THROW(tl.validate(c), Error);
  tl.events = {event(1.0, PlatformEventKind::NodeSlowdown, 0, -2.0)};
  EXPECT_THROW(tl.validate(c), Error);
  tl.events = {event(1.0, PlatformEventKind::NodeRestart, 0)};
  EXPECT_THROW(tl.validate(c), Error);  // restart without a failure
}

// ---- scenario integration ----------------------------------------------

const char* kDegradedSingle =
    "[scenario]\n"
    "name = \"tl\"\n"
    "kind = \"experiment\"\n"
    "[platform]\n"
    "nodes = 6\n"
    "gflops = 3.0\n"
    "[workload]\n"
    "source = \"generate\"\n"
    "generator = \"layered\"\n"
    "count = 1\n"
    "tasks = 20\n"
    "[events]\n"
    "on-fail = \"reschedule\"\n"
    "[event]\n"
    "at = 0.5\n"
    "kind = \"node-fail\"\n"
    "node = 0\n"
    "[event]\n"
    "at = 2\n"
    "kind = \"node-restart\"\n"
    "node = 0\n"
    "[event]\n"
    "at = 1\n"
    "kind = \"link-capacity\"\n"
    "node = 2\n"
    "factor = 0.25\n";

TEST(TimelineScenario, EventsSectionRoundTripsByteStable) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kDegradedSingle);
  ASSERT_EQ(spec.events.timeline.events.size(), 3u);
  EXPECT_EQ(spec.events.timeline.on_fail, FailPolicy::Reschedule);
  const std::string once = scenario::emit_scenario(spec);
  EXPECT_EQ(once,
            scenario::emit_scenario(scenario::parse_scenario_string(once)));
}

TEST(TimelineScenario, BareEventsSectionIsIdenticalToNoSection) {
  std::string healthy_text;
  std::string bare_text;
  for (const char* line : {"[scenario]\n", "kind = \"experiment\"\n",
                           "[platform]\n", "nodes = 6\n", "gflops = 3.0\n",
                           "[workload]\n", "source = \"generate\"\n",
                           "generator = \"layered\"\n", "count = 1\n",
                           "tasks = 20\n"}) {
    healthy_text += line;
    bare_text += line;
  }
  bare_text += "[events]\non-fail = \"hold\"\n";  // section, zero events
  const scenario::ScenarioSpec healthy =
      scenario::parse_scenario_string(healthy_text);
  const scenario::ScenarioSpec bare =
      scenario::parse_scenario_string(bare_text);
  // Canonical emission drops the empty section entirely...
  EXPECT_EQ(scenario::emit_scenario(healthy), scenario::emit_scenario(bare));
  // ...so trace headers and every simulated byte stay identical.
  EXPECT_EQ(scenario::render_trace(healthy, 1),
            scenario::render_trace(bare, 1));
}

TEST(TimelineScenario, EventInjectedTraceReplayVerifies) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kDegradedSingle);
  const std::string path = testing::TempDir() + "degraded_trace.jsonl";
  std::ofstream out(path, std::ios::binary);
  out << scenario::render_trace(spec, 1);
  out.close();
  const ReplayReport report = verify_trace(path, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 3u);  // 1 workload x naive's 3 algorithms
  std::remove(path.c_str());
}

TEST(TimelineScenario, RobustnessHealthyHalfMatchesTable6) {
  const char* kShared =
      "[platform]\n"
      "cluster = \"chti\"\n"
      "[workload]\n"
      "source = \"corpus\"\n"
      "samples-kernel = 2\n"
      "cap-per-family = 2\n"
      "[algorithms]\n"
      "preset = \"tuned\"\n";
  const scenario::ScenarioSpec table6 = scenario::parse_scenario_string(
      std::string("[scenario]\nkind = \"table6\"\n") + kShared);
  const scenario::ScenarioSpec robustness = scenario::parse_scenario_string(
      std::string("[scenario]\nkind = \"robustness\"\n") + kShared +
      "[events]\n[event]\nat = 2\nkind = \"node-slowdown\"\nnode = 0\n"
      "factor = 0.5\n");
  const auto find_degradation = [](const report::ReportModel& model)
      -> const report::TableModel* {
    for (const auto& item : model.items)
      if (item.kind == report::Item::Kind::Table &&
          item.table.id == "degradation")
        return &item.table;
    return nullptr;
  };
  const report::ReportModel a = scenario::build_report(table6);
  const report::ReportModel b = scenario::build_report(robustness);
  const report::TableModel* ta = find_degradation(a);
  const report::TableModel* tb = find_degradation(b);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  // The healthy half of the robustness report IS Table VI: same rows,
  // same formatted cells — the paper's numbers as a robustness preset.
  ASSERT_EQ(ta->rows.size(), tb->rows.size());
  for (std::size_t r = 0; r < ta->rows.size(); ++r) {
    ASSERT_EQ(ta->rows[r].size(), tb->rows[r].size());
    for (std::size_t col = 0; col < ta->rows[r].size(); ++col)
      EXPECT_EQ(ta->rows[r][col].text, tb->rows[r][col].text)
          << "row " << r << " col " << col;
  }
}

TEST(TimelineScenario, StaticKindsRejectEvents) {
  // The parser rejects the [event] at its line, and the registry a
  // built spec carrying one.
  EXPECT_THROW(scenario::parse_scenario_string(
                   "[scenario]\nkind = \"table1\"\n"
                   "[events]\n[event]\nat = 1\nkind = \"node-fail\"\n"
                   "node = 0\n"),
               Error);
  scenario::ScenarioSpec spec =
      scenario::parse_scenario_string("[scenario]\nkind = \"table1\"\n");
  spec.events.timeline.events.push_back(
      PlatformEvent{1.0, PlatformEventKind::NodeFail, 0});
  EXPECT_THROW(scenario::build_report(spec), Error);
}

TEST(TimelineScenario, RobustnessRequiresEvents) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario_string(
      "[scenario]\nkind = \"robustness\"\n"
      "[platform]\ncluster = \"chti\"\n"
      "[workload]\nsource = \"corpus\"\nsamples-kernel = 2\n"
      "cap-per-family = 1\n"
      "[algorithms]\npreset = \"tuned\"\n");
  EXPECT_THROW(scenario::build_report(spec), Error);
}

// ---- fault accounting invariants ---------------------------------------

// Hand-computed capacity·s and node·s integrals.  cluster4's links all
// carry 125e6 B/s; events on unused nodes never perturb the makespan,
// so the integration window is the healthy makespan.
TEST(TimelineFaults, IntegralsMatchHandComputedWindows) {
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const double m = simulate(g, s, c).makespan;
  PlatformTimeline tl;
  // Overlapping windows on distinct resources: node 3's NIC pair at
  // factor 0.5 from t=1, node 2 down over [0.5, 1.5).
  tl.events = {event(1.0, PlatformEventKind::LinkCapacity, 3, 0.5),
               event(0.5, PlatformEventKind::NodeFail, 2),
               event(1.5, PlatformEventKind::NodeRestart, 2)};
  tl.sort();
  const auto r = sim_with(g, s, c, &tl);
  EXPECT_EQ(r.makespan, m);  // events touch only idle nodes
  EXPECT_NEAR(r.faults.node_seconds_down, 1.0, 1e-9);
  const double link = 125e6;
  const double want = 2 * link * 0.5 * (m - 1.0)  // traffic on node 3
                      + 2 * link * 1.0;           // node 2 down for 1 s
  EXPECT_NEAR(r.faults.capacity_seconds_lost, want, want * 1e-9);
}

TEST(TimelineFaults, DownOverridesTrafficOnTheSameLink) {
  // Node 2 carries background traffic (factor 0.25) from t=0 and is
  // down over [1, 2): while down the lost capacity is the full link,
  // not the 75% the traffic factor alone would account for.
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  const double m = simulate(g, s, c).makespan;
  PlatformTimeline tl;
  tl.events = {event(0.0, PlatformEventKind::LinkCapacity, 2, 0.25),
               event(1.0, PlatformEventKind::NodeFail, 2),
               event(2.0, PlatformEventKind::NodeRestart, 2)};
  const auto r = sim_with(g, s, c, &tl);
  const double link = 125e6;
  const double want = 2 * link * (0.75 * (m - 1.0) + 1.0 * 1.0);
  EXPECT_NEAR(r.faults.capacity_seconds_lost, want, want * 1e-9);
  EXPECT_NEAR(r.faults.node_seconds_down, 1.0, 1e-9);
}

TEST(TimelineFaults, AccountingIsBitIdenticalAcrossRepeats) {
  // The invariant `rats run --check N` leans on: repeated simulation
  // reproduces the fault counters bit-exactly, not just approximately.
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  PlatformTimeline tl;
  tl.on_fail = FailPolicy::Hold;
  tl.events = {event(0.25, PlatformEventKind::LinkCapacity, 3, 0.5),
               event(0.5, PlatformEventKind::NodeFail, 0),
               event(2.0, PlatformEventKind::NodeRestart, 0)};
  const auto first = sim_with(g, s, c, &tl);
  for (int i = 0; i < 3; ++i) {
    const auto again = sim_with(g, s, c, &tl);
    EXPECT_EQ(first.makespan, again.makespan);
    EXPECT_EQ(first.faults.tasks_killed, again.faults.tasks_killed);
    EXPECT_EQ(first.faults.capacity_seconds_lost,
              again.faults.capacity_seconds_lost);
    EXPECT_EQ(first.faults.node_seconds_down, again.faults.node_seconds_down);
  }
}

TEST(TimelineFaults, ValidationHooksKeepResultsByteIdentical) {
  // SimulatorOptions::validate adds the fluid network's conservation
  // and warm≡cold checks but must never change a result byte — the
  // healthy goldens depend on it.
  const TaskGraph g = chain_graph();
  const Cluster c = cluster4();
  const Schedule s = place({{0}, {1}});
  PlatformTimeline tl;
  tl.events = {event(0.25, PlatformEventKind::LinkCapacity, 1, 0.5),
               event(0.5, PlatformEventKind::NodeFail, 3),
               event(1.0, PlatformEventKind::NodeRestart, 3)};
  const PlatformTimeline* const timelines[] = {nullptr, &tl};
  for (const PlatformTimeline* timeline : timelines) {
    SimulatorOptions plain, checked;
    plain.timeline = checked.timeline = timeline;
    checked.validate = true;
    const auto a = simulate(g, s, c, plain);
    const auto b = simulate(g, s, c, checked);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.total_work, b.total_work);
    EXPECT_EQ(a.network_bytes, b.network_bytes);
    EXPECT_EQ(a.faults.capacity_seconds_lost, b.faults.capacity_seconds_lost);
  }
}

}  // namespace
}  // namespace rats
