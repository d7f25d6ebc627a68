#include "fuzz/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/scheduler.hpp"

namespace rats::fuzz {

namespace {

/// Rounds to 3 decimals so emitted specs stay short and every value
/// survives the text round trip exactly.
double round3(double v) { return std::round(v * 1000.0) / 1000.0; }

void gen_platform(Rng& rng, scenario::PlatformSpec& p) {
  p.gflops = round3(rng.uniform(0.5, 4.0));
  p.latency_us = round3(rng.uniform(20.0, 200.0));
  p.bandwidth_gbps = round3(rng.uniform(0.25, 4.0));
  p.uplink_latency_us = round3(rng.uniform(20.0, 200.0));
  p.uplink_bandwidth_gbps = round3(rng.uniform(0.25, 4.0));
  const int shape = static_cast<int>(rng.uniform_int(0, 2));
  if (shape == 0) {
    // Flat: 2..10 nodes.
    p.name = "fuzz-flat";
    p.nodes = static_cast<int>(rng.uniform_int(2, 10));
  } else {
    // Hierarchical: 2..3 cabinets, uniform or heterogeneous.
    p.name = shape == 1 ? "fuzz-hier" : "fuzz-hetero";
    const int cabinets = static_cast<int>(rng.uniform_int(2, 3));
    const int base = static_cast<int>(rng.uniform_int(2, 4));
    for (int c = 0; c < cabinets; ++c)
      p.cabinet_nodes.push_back(
          shape == 1 ? base : static_cast<int>(rng.uniform_int(1, 5)));
  }
}

/// Multi-cluster platform: a random subset (>= 2) of the Grid'5000
/// presets, in canonical order.  Only the table kinds accept several
/// clusters, so callers pair this with kind table5/table6.
void gen_preset_platform(Rng& rng, scenario::PlatformSpec& p) {
  static const char* kPresets[3] = {"chti", "grillon", "grelon"};
  // Bitmask over the three presets; 3/5/6/7 are the subsets of size >= 2.
  static const int kMasks[4] = {3, 5, 6, 7};
  const int mask = kMasks[rng.uniform_int(0, 3)];
  for (int i = 0; i < 3; ++i)
    if (mask & (1 << i)) p.presets.push_back(kPresets[i]);
}

/// Non-empty [sweep] grids over the base algorithm.  Kept tiny (<= 2
/// values per axis, <= 2 scheduler axes) so a fuzz battery run stays
/// within its per-spec budget; `has_events` gates the event-factor
/// axis, which the sweep kind rejects without an [events] timeline.
void gen_sweep(Rng& rng, bool has_events, scenario::SweepSpec& sw) {
  auto grid = [&](double lo, double hi) {
    std::vector<double> g;
    const int n = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < n; ++i) g.push_back(round3(rng.uniform(lo, hi)));
    return g;
  };
  if (rng.bernoulli(0.5)) {
    sw.base = "delta";
    sw.mindeltas = grid(-0.9, 0.0);
    if (rng.bernoulli(0.7)) sw.maxdeltas = grid(0.0, 1.0);
  } else {
    sw.base = "time-cost";
    sw.minrhos = grid(0.1, 0.9);
    if (rng.bernoulli(0.5)) sw.packings = {true, false};
  }
  if (has_events && rng.bernoulli(0.4)) sw.event_factors = grid(0.1, 1.2);
}

void gen_workload(Rng& rng, scenario::WorkloadSpec& w) {
  w.source = scenario::WorkloadSpec::Source::Generate;
  w.count = static_cast<int>(rng.uniform_int(1, 2));
  w.generate_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1000000000));
  switch (rng.uniform_int(0, 3)) {
    case 0:
      w.generator = "fft";
      w.fft_k = 1 << rng.uniform_int(1, 3);  // 2, 4 or 8
      break;
    case 1:
      w.generator = "strassen";
      break;
    case 2:
    default: {
      w.generator = rng.bernoulli(0.5) ? "layered" : "irregular";
      w.dag.num_tasks = static_cast<int>(rng.uniform_int(5, 40));
      w.dag.width = round3(rng.uniform(0.2, 1.0));
      w.dag.density = round3(rng.uniform(0.2, 1.0));
      w.dag.regularity = round3(rng.uniform(0.2, 1.0));
      w.dag.jump = static_cast<int>(rng.uniform_int(1, 3));
      break;
    }
  }
}

void gen_algorithms(Rng& rng, scenario::AlgorithmsSpec& a) {
  // The "tuned" preset runs a full AutoTuner sweep — far too slow for a
  // per-spec fuzz budget — so explicit mixes stand in for it.
  if (rng.bernoulli(0.3)) {
    a.preset = "naive";
    return;
  }
  a.preset.clear();
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n; ++i) {
    AlgoSpec algo;
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    switch (kind) {
      case 0: algo.options.kind = SchedulerKind::Cpa; break;
      case 1: algo.options.kind = SchedulerKind::Mcpa; break;
      case 2: algo.options.kind = SchedulerKind::Hcpa; break;
      case 3:
        algo.options.kind = SchedulerKind::RatsDelta;
        algo.options.rats.mindelta = round3(rng.uniform(-0.9, 0.0));
        algo.options.rats.maxdelta = round3(rng.uniform(0.0, 1.0));
        break;
      default:
        algo.options.kind = SchedulerKind::RatsTimeCost;
        algo.options.rats.minrho = round3(rng.uniform(0.1, 0.9));
        algo.options.rats.packing = rng.bernoulli(0.7);
        break;
    }
    algo.options.secondary_sort = rng.bernoulli(0.9);
    algo.name = to_string(algo.options.kind) + "-" + std::to_string(i);
    a.algos.push_back(std::move(algo));
  }
}

/// Stochastic fault process over a fixed horizon: Poisson-style event
/// arrivals.  Every node-fail is paired with a later restart (so no
/// spec can strand data forever and stall the simulator), at most one
/// fail/restart pair per node (two pairs on one node could interleave
/// after sorting and break the timeline's fail/restart alternation),
/// and at least one node never fails so progress is always possible.
void gen_events(Rng& rng, int num_nodes, int cabinets,
                scenario::EventsSpec& ev) {
  ev.timeline.on_fail =
      rng.bernoulli(0.5) ? FailPolicy::Reschedule : FailPolicy::Hold;
  const double horizon = round3(rng.uniform(0.5, 50.0));
  const int arrivals = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<bool> failed(static_cast<std::size_t>(num_nodes), false);
  int pairs = 0;
  auto& out = ev.timeline.events;
  for (int i = 0; i < arrivals; ++i) {
    PlatformEvent e;
    e.at = round3(rng.uniform(0.0, horizon));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // background traffic on a node's NIC pair
        e.kind = PlatformEventKind::LinkCapacity;
        e.node = static_cast<NodeId>(rng.uniform_int(0, num_nodes - 1));
        e.factor = round3(rng.uniform(0.1, 1.5));
        break;
      case 1:  // background traffic on a cabinet uplink (hierarchical)
        if (cabinets == 0) continue;
        e.kind = PlatformEventKind::LinkCapacity;
        e.cabinet = static_cast<int>(rng.uniform_int(0, cabinets - 1));
        e.factor = round3(rng.uniform(0.1, 1.5));
        break;
      case 2:
        e.kind = PlatformEventKind::NodeSlowdown;
        e.node = static_cast<NodeId>(rng.uniform_int(0, num_nodes - 1));
        e.factor = round3(rng.uniform(0.2, 1.0));
        break;
      default: {
        if (pairs + 1 >= num_nodes) continue;  // keep one node fail-free
        NodeId n = static_cast<NodeId>(rng.uniform_int(0, num_nodes - 1));
        while (failed[static_cast<std::size_t>(n)])
          n = static_cast<NodeId>((n + 1) % num_nodes);
        failed[static_cast<std::size_t>(n)] = true;
        ++pairs;
        e.kind = PlatformEventKind::NodeFail;
        e.node = n;
        PlatformEvent restart = e;
        restart.kind = PlatformEventKind::NodeRestart;
        restart.at = round3(e.at + rng.uniform(0.001, horizon * 0.5));
        out.push_back(e);
        out.push_back(restart);
        continue;
      }
    }
    out.push_back(e);
  }
  ev.timeline.sort();
}

}  // namespace

std::uint64_t spec_seed(std::uint64_t campaign_seed, int index) {
  // splitmix64 finalizer over (seed, index) — avalanche so index 0 and
  // 1 land in unrelated regions of the generator's input space.
  std::uint64_t z =
      campaign_seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

scenario::ScenarioSpec generate_spec(std::uint64_t seed) {
  Rng rng(seed);
  scenario::ScenarioSpec spec;
  spec.name = "fuzz-s" + std::to_string(seed);
  spec.threads = 1;  // forked oracle runs stay single-threaded
  Rng platform_rng = rng.split(1);
  Rng workload_rng = rng.split(2);
  Rng algos_rng = rng.split(3);

  // Kind mix: the single-cluster kinds dominate, with slices for the
  // generic sweep and the multi-cluster table kinds so the battery
  // exercises every matrix shape the scenario engine can run.
  const int pick = static_cast<int>(rng.uniform_int(0, 19));
  const bool table_kind = pick >= 16;
  if (pick < 4) spec.kind = "single";
  else if (pick < 13) spec.kind = "experiment";
  else if (pick < 16) spec.kind = "sweep";
  else spec.kind = pick < 18 ? "table5" : "table6";

  if (table_kind) {
    // table5/table6 run the tuned preset over every listed cluster;
    // the generated workload stays tiny to keep the 3x matrix cheap.
    gen_preset_platform(platform_rng, spec.platform);
    spec.algorithms.preset = "tuned";
  } else {
    gen_platform(platform_rng, spec.platform);
    // The sweep kind runs its own [sweep] points and rejects an
    // [algorithm] list, so it keeps the default preset.
    if (spec.kind != "sweep") gen_algorithms(algos_rng, spec.algorithms);
  }
  gen_workload(workload_rng, spec.workload);

  if (rng.bernoulli(0.6)) {
    // Preset clusters: node ids < 20 are valid on all three (chti is
    // the smallest), and no cabinet events (chti/grillon are flat).
    int nodes = 20, cabinets = 0;
    if (spec.platform.is_custom()) {
      nodes = spec.platform.nodes;
      for (const int c : spec.platform.cabinet_nodes) nodes += c;
      cabinets = static_cast<int>(spec.platform.cabinet_nodes.size());
    }
    Rng ev_rng = rng.split(4);
    gen_events(ev_rng, nodes, cabinets, spec.events);
  }
  if (spec.kind == "sweep") {
    Rng sweep_rng = rng.split(5);
    gen_sweep(sweep_rng, !spec.events.empty(), spec.sweep);
  }
  return spec;
}

}  // namespace rats::fuzz
