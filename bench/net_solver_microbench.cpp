// Microbenchmarks of the simulation substrate: the Max-Min fair-share
// solver (incremental vs reference), block-redistribution planning, the
// fluid network flow simulation, DAG generation, and one end-to-end
// schedule+simulate scenario per algorithm.
//
// Modes:
//  * default            — google-benchmark microbenchmarks;
//  * --grid [--out F]   — the solver scaling grid (flows x links x
//                         events, old vs new solver), emitting JSON
//                         under bench/results/ so speedups land in the
//                         benchmark trajectory.  --quick shrinks the
//                         grid for CI smoke runs;
//  * --components       — re-solve cost vs sharing-component size at a
//                         fixed total flow count: each event perturbs
//                         one component and is solved either globally
//                         (every active flow, what the engine paid
//                         before component scoping) or component-scoped
//                         (the subset overload over one component).
//                         Emits JSON; --quick shrinks it;
//  * --warmstart        — per-event re-solve cost after a single-flow
//                         swap: full cold solve (what the engine paid
//                         before warm starts) vs solve_warm over the
//                         saturation trace, with cold fallbacks
//                         counted.  Emits JSON.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "daggen/kernels.hpp"
#include "daggen/random_dag.hpp"
#include "net/fluid_network.hpp"
#include "net/maxmin.hpp"
#include "platform/grid5000.hpp"
#include "redist/block_redistribution.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace rats;

// Random flow population: `flows_count` flows over `links` NIC-style
// links, two links per flow (sender up + receiver down), 30% TCP-capped.
std::vector<FlowDemand> make_flows(std::size_t flows_count, int links,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowDemand> flows(flows_count);
  const int nodes = links / 2;
  for (auto& f : flows) {
    auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    if (dst == src) dst = (dst + 1) % nodes;
    f.links = {2 * src, 2 * dst + 1};
    if (rng.bernoulli(0.3)) f.cap = rng.uniform(1e6, 125e6);
  }
  return flows;
}

// Max-Min solver: `flows` random flows over a 64-node flat cluster's
// NIC links (two links per flow).
void BM_MaxMinSolver(benchmark::State& state) {
  const auto flows_count = static_cast<std::size_t>(state.range(0));
  std::vector<Rate> capacity(128, 125e6);
  const auto flows = make_flows(flows_count, 128, 7);
  MaxMinSolver solver;
  std::vector<Rate> rates;
  for (auto _ : state) {
    solver.solve(capacity, flows, rates);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows_count));
}
BENCHMARK(BM_MaxMinSolver)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The seed's full-rescan solver on the same instances, for comparison.
void BM_MaxMinSolverReference(benchmark::State& state) {
  const auto flows_count = static_cast<std::size_t>(state.range(0));
  std::vector<Rate> capacity(128, 125e6);
  const auto flows = make_flows(flows_count, 128, 7);
  for (auto _ : state) {
    auto rates = maxmin_fair_rates_reference(capacity, flows);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows_count));
}
BENCHMARK(BM_MaxMinSolverReference)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Planning one block redistribution between disjoint p- and q-sets.
void BM_RedistributionPlan(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const int q = p + p / 2 + 1;
  std::vector<NodeId> senders, receivers;
  for (int i = 0; i < p; ++i) senders.push_back(i);
  for (int i = 0; i < q; ++i) receivers.push_back(p + i);
  for (auto _ : state) {
    auto r = Redistribution::plan(1e9, senders, receivers);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RedistributionPlan)->Arg(4)->Arg(16)->Arg(64);

// Fluid network: `n` concurrent point-to-point flows on grillon.
void BM_FluidNetwork(benchmark::State& state) {
  Cluster cluster = grid5000::grillon();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    FluidNetwork net(cluster);
    for (int i = 0; i < n; ++i) {
      NodeId src = static_cast<NodeId>(i % cluster.num_nodes());
      NodeId dst = static_cast<NodeId>((i + 7) % cluster.num_nodes());
      if (dst == src) dst = (dst + 1) % cluster.num_nodes();
      net.open_flow(src, dst, 1e8);
    }
    while (auto t = net.next_event_time()) net.advance_to(*t);
    benchmark::DoNotOptimize(net.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FluidNetwork)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// DAG generation throughput.
void BM_GenerateIrregularDag(benchmark::State& state) {
  RandomDagParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.width = 0.5;
  params.density = 0.8;
  params.regularity = 0.2;
  params.jump = 2;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto g = generate_irregular_dag(params, rng);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenerateIrregularDag)->Arg(25)->Arg(100);

// End-to-end: schedule + simulate one FFT k=8 DAG on grillon.
void BM_ScheduleAndSimulate(benchmark::State& state) {
  Cluster cluster = grid5000::grillon();
  Rng rng(3);
  TaskGraph g = generate_fft_dag(8, rng);
  SchedulerOptions options;
  options.kind = static_cast<SchedulerKind>(state.range(0));
  for (auto _ : state) {
    Schedule s = build_schedule(g, cluster, options);
    auto r = simulate(g, s, cluster);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_ScheduleAndSimulate)
    ->Arg(static_cast<int>(SchedulerKind::Hcpa))
    ->Arg(static_cast<int>(SchedulerKind::RatsDelta))
    ->Arg(static_cast<int>(SchedulerKind::RatsTimeCost));

// ------------------------------------------------------- scaling grid
//
// Simulates the event-driven usage pattern: `events` successive solves,
// each after swapping one flow out of / a fresh flow into the
// population (what a flow arrival/departure does to the fluid network).
// The reference solver pays a full from-scratch solve per event; the
// incremental solver reuses its scratch and heap machinery.

double time_solves_ms(const std::vector<Rate>& capacity,
                      std::vector<FlowDemand>& flows, int events,
                      bool incremental, std::uint64_t seed) {
  Rng rng(seed);
  MaxMinSolver solver;
  std::vector<Rate> rates;
  const auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < events; ++e) {
    if (incremental)
      solver.solve(capacity, flows, rates);
    else
      rates = maxmin_fair_rates_reference(capacity, flows);
    benchmark::DoNotOptimize(rates);
    // One departure + one arrival between events.
    const auto victim =
        static_cast<std::size_t>(rng.uniform_int(0, flows.size() - 1));
    const int nodes = static_cast<int>(capacity.size()) / 2;
    auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    if (dst == src) dst = (dst + 1) % nodes;
    flows[victim].links = {2 * src, 2 * dst + 1};
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

int run_grid(bool quick, const std::string& out_path) {
  struct Cell {
    int flows, links, events;
  };
  std::vector<Cell> grid;
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{100, 1000} : std::vector<int>{100, 1000, 10000};
  const std::vector<int> link_counts =
      quick ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1000};
  for (int f : flow_counts)
    for (int l : link_counts)
      for (int e : {1, 16}) grid.push_back({f, l, e});

  std::filesystem::path path(out_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    // fopen below reports the actual failure if the directory is missing.
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }

  std::fprintf(out, "{\n  \"benchmark\": \"net_solver_scaling\",\n");
  std::fprintf(out, "  \"unit\": \"ms per %s\",\n", "event batch");
  std::fprintf(out, "  \"cells\": [\n");
  bool first = true;
  bool target_met = true;
  for (const auto& cell : grid) {
    // Links must be even (NIC pairs) and host at least 2 nodes.
    const int links = cell.links % 2 ? cell.links + 1 : cell.links;
    std::vector<Rate> capacity(static_cast<std::size_t>(links), 125e6);
    auto flows = make_flows(static_cast<std::size_t>(cell.flows), links, 11);

    auto flows_ref = flows;
    const double ref_ms =
        time_solves_ms(capacity, flows_ref, cell.events, false, 13);
    auto flows_inc = flows;
    const double inc_ms =
        time_solves_ms(capacity, flows_inc, cell.events, true, 13);
    const double speedup = inc_ms > 0 ? ref_ms / inc_ms : 0.0;

    std::printf("flows=%-6d links=%-5d events=%-3d ref=%9.3fms inc=%9.3fms speedup=%6.1fx\n",
                cell.flows, links, cell.events, ref_ms, inc_ms, speedup);
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    {\"flows\": %d, \"links\": %d, \"events\": %d, "
                 "\"reference_ms\": %.6f, \"incremental_ms\": %.6f, "
                 "\"speedup\": %.3f}",
                 cell.flows, links, cell.events, ref_ms, inc_ms, speedup);
    if (cell.flows >= 10000 && links >= 1000 && speedup < 10.0)
      target_met = false;
  }
  std::fprintf(out,
               "\n  ],\n  \"target\": \">=10x at 10k flows / 1k links\"\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!quick && !target_met) {
    std::fprintf(stderr, "FAIL: speedup below 10x at 10k flows / 1k links\n");
    return 1;
  }
  return 0;
}

// ------------------------------------------------- component scaling
//
// Fixed total flow population partitioned into `components` disjoint
// sharing components (each with its own private links).  Every event
// rewires one flow inside one component — exactly what a contended
// arrival/departure does — and the rates are recomputed either with a
// full solve over all flows (the pre-component-scoping cost) or with a
// subset solve over the touched component only.  The component-scoped
// cost must track the component size, not the total population.

int run_components(bool quick, const std::string& out_path) {
  const int total_flows = quick ? 512 : 2048;
  const std::vector<int> component_counts =
      quick ? std::vector<int>{1, 8, 64} : std::vector<int>{1, 4, 16, 64, 256};
  const int events = quick ? 64 : 256;
  const int links_per_group = 32;  // 16 nodes x (up, down)

  std::filesystem::path path(out_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"net_solver_components\",\n");
  std::fprintf(out, "  \"unit\": \"ms per event\",\n  \"cells\": [\n");

  bool first = true;
  bool scales = true;
  double comp_ms_smallest = 0, comp_ms_largest = 0;
  for (const int components : component_counts) {
    const int group_size = total_flows / components;
    const int num_links = components * links_per_group;
    std::vector<Rate> capacity(static_cast<std::size_t>(num_links), 125e6);

    // Population: flows of group g use only g's private links.
    Rng rng(17);
    std::vector<FlowDemand> flows(static_cast<std::size_t>(total_flows));
    const auto rewire = [&](std::size_t f) {
      const int g = static_cast<int>(f) / group_size;
      const int nodes = links_per_group / 2;
      auto src = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      auto dst = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
      if (dst == src) dst = (dst + 1) % nodes;
      flows[f].links = {g * links_per_group + 2 * src,
                        g * links_per_group + 2 * dst + 1};
    };
    for (std::size_t f = 0; f < flows.size(); ++f) rewire(f);

    MaxMinSolver solver;
    std::vector<Rate> rates;
    std::vector<FlowDemandView> views(static_cast<std::size_t>(group_size));
    std::vector<Rate> group_rates(static_cast<std::size_t>(group_size));

    // Full solves: every event re-solves the whole population.
    double full_ms = 0;
    {
      Rng ev(23);
      const auto start = std::chrono::steady_clock::now();
      for (int e = 0; e < events; ++e) {
        solver.solve(capacity, flows, rates);
        benchmark::DoNotOptimize(rates);
        rewire(static_cast<std::size_t>(
            ev.uniform_int(0, static_cast<std::int64_t>(flows.size()) - 1)));
      }
      const auto stop = std::chrono::steady_clock::now();
      full_ms =
          std::chrono::duration<double, std::milli>(stop - start).count() /
          events;
    }

    // Component-scoped solves: only the touched component is re-solved.
    double comp_ms = 0;
    {
      Rng ev(23);
      const auto start = std::chrono::steady_clock::now();
      for (int e = 0; e < events; ++e) {
        const auto victim = static_cast<std::size_t>(
            ev.uniform_int(0, static_cast<std::int64_t>(flows.size()) - 1));
        const std::size_t g = victim / static_cast<std::size_t>(group_size);
        for (int k = 0; k < group_size; ++k) {
          const auto& d =
              flows[g * static_cast<std::size_t>(group_size) +
                    static_cast<std::size_t>(k)];
          views[static_cast<std::size_t>(k)] = FlowDemandView{
              d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap};
        }
        solver.solve(capacity, views.data(), views.size(), group_rates.data());
        benchmark::DoNotOptimize(group_rates);
        rewire(victim);
      }
      const auto stop = std::chrono::steady_clock::now();
      comp_ms =
          std::chrono::duration<double, std::milli>(stop - start).count() /
          events;
    }

    const double speedup = comp_ms > 0 ? full_ms / comp_ms : 0.0;
    std::printf(
        "flows=%-5d components=%-4d comp_size=%-5d full=%8.4fms/ev "
        "comp=%8.4fms/ev speedup=%6.1fx\n",
        total_flows, components, group_size, full_ms, comp_ms, speedup);
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    {\"total_flows\": %d, \"components\": %d, "
                 "\"component_size\": %d, \"full_ms_per_event\": %.6f, "
                 "\"component_ms_per_event\": %.6f, \"speedup\": %.3f}",
                 total_flows, components, group_size, full_ms, comp_ms,
                 speedup);
    if (components == component_counts.front()) comp_ms_smallest = comp_ms;
    if (components == component_counts.back()) comp_ms_largest = comp_ms;
  }
  // Scaling gate: with many small components, a component-scoped event
  // must be far cheaper than with one global component — i.e. the cost
  // tracks component size, not total flows.
  if (comp_ms_largest * 4.0 > comp_ms_smallest) scales = false;
  std::fprintf(out,
               "\n  ],\n  \"target\": \"component-scoped event cost tracks "
               "component size, not total flows\"\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!scales) {
    std::fprintf(stderr,
                 "FAIL: component-scoped solve cost does not shrink with "
                 "component size\n");
    return 1;
  }
  return 0;
}

// ----------------------------------------------------- warm-start grid
//
// Event-driven usage with warm starts: after one flow departs and one
// arrives, the cold engine re-solves the whole population while the
// warm engine undoes and replays only the affected saturation cascade.
//
// Traffic is *skewed* (quadratically towards low node ids), like real
// redistribution traffic where a few NICs carry whole p x q transfer
// sets: the hottest links saturate in the earliest rounds, and an
// arrival on an averagely-loaded link leaves all of those rounds
// untouched.  Uniform traffic would make every link equally loaded and
// push almost every arrival's divergence to round zero.

int run_warmstart(bool quick, const std::string& out_path) {
  struct Cell {
    int flows, links;
    bool capped;  ///< 30% of flows carry a binding TCP cap
  };
  std::vector<Cell> grid;
  const std::vector<int> flow_counts =
      quick ? std::vector<int>{100, 400} : std::vector<int>{100, 400, 1000, 4000};
  const std::vector<int> link_counts =
      quick ? std::vector<int>{64, 256} : std::vector<int>{64, 256};
  // Uncapped cells model low-latency clusters (the TCP-window bound
  // sits above the link bandwidth, fig2's regime, where warm starts
  // shine); capped cells add binding caps, whose early cap rounds make
  // departures cascade much deeper.
  for (int f : flow_counts)
    for (int l : link_counts)
      for (bool capped : {false, true}) grid.push_back({f, l, capped});
  const int events = quick ? 128 : 256;

  std::filesystem::path path(out_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"net_solver_warmstart\",\n");
  std::fprintf(out, "  \"unit\": \"ms per event\",\n  \"cells\": [\n");

  bool first = true;
  bool target_met = true;
  long warm_attempts = 0;
  long warm_declines = 0;
  for (const auto& cell : grid) {
    std::vector<Rate> capacity(static_cast<std::size_t>(cell.links), 125e6);
    const int nodes = cell.links / 2;
    const auto skewed_node = [&](Rng& rng) {
      const double u = rng.uniform(0.0, 1.0);
      return static_cast<std::int32_t>(
          std::min<double>(nodes - 1, nodes * u * u));
    };
    const auto random_demand = [&](Rng& rng) {
      FlowDemand d;
      const std::int32_t src = skewed_node(rng);
      std::int32_t dst = skewed_node(rng);
      if (dst == src) dst = (dst + 1) % nodes;
      d.links = {2 * src, 2 * dst + 1};
      if (cell.capped && rng.bernoulli(0.3)) d.cap = rng.uniform(1e6, 125e6);
      return d;
    };
    std::vector<FlowDemand> initial;
    {
      Rng rng(37);
      for (int f = 0; f < cell.flows; ++f) initial.push_back(random_demand(rng));
    }

    // Events alternate a single departure (even) with a single arrival
    // (odd) — the fluid network's ensure_rates sees exactly such
    // single-flow deltas between solves.  Both engines replay the
    // identical sequence; the population size oscillates by one.
    struct Event {
      bool departure;
      std::size_t victim;      // departure only
      FlowDemand arriving;     // arrival only
    };
    const auto make_event = [&](Rng& rng, int index, std::size_t population) {
      Event ev;
      ev.departure = index % 2 == 0;
      if (ev.departure)
        ev.victim =
            static_cast<std::size_t>(rng.uniform_int(0, population - 1));
      else
        ev.arriving = random_demand(rng);
      return ev;
    };

    const auto make_views = [](const std::vector<FlowDemand>& flows,
                               std::vector<FlowDemandView>& views) {
      views.clear();
      for (const auto& d : flows)
        views.push_back(FlowDemandView{
            d.links.data(), static_cast<std::int32_t>(d.links.size()), d.cap});
    };

    // Cold engine: one full subset solve per event.  Best of two
    // repetitions (the event replay is deterministic), so one OS
    // hiccup cannot flip the gate on a busy CI machine.
    double cold_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      auto flows = initial;
      Rng rng(41);
      MaxMinSolver solver;
      std::vector<FlowDemandView> views;
      std::vector<Rate> rates;
      const auto start = std::chrono::steady_clock::now();
      for (int e = 0; e < events; ++e) {
        auto ev = make_event(rng, e, flows.size());
        if (ev.departure) {
          flows[ev.victim] = std::move(flows.back());
          flows.pop_back();
        } else {
          flows.push_back(std::move(ev.arriving));
        }
        make_views(flows, views);
        rates.resize(flows.size());
        solver.solve(capacity, views.data(), views.size(), rates.data());
        benchmark::DoNotOptimize(rates);
      }
      const auto stop = std::chrono::steady_clock::now();
      cold_ms = std::min(
          cold_ms,
          std::chrono::duration<double, std::milli>(stop - start).count() /
              events);
    }

    // Warm engine: traced solve once, then solve_warm per event.  Best
    // of two deterministic repetitions, like the cold engine.
    double warm_ms = std::numeric_limits<double>::infinity();
    int fallbacks = 0;
    for (int rep = 0; rep < 2; ++rep) {
      fallbacks = 0;
      auto flows = initial;
      std::vector<std::int32_t> ids(flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f)
        ids[f] = static_cast<std::int32_t>(f);
      std::int32_t next_id = static_cast<std::int32_t>(flows.size());
      Rng rng(41);
      MaxMinSolver solver;
      MaxMinWarmState state;
      std::vector<FlowDemandView> views;
      std::vector<Rate> rates(flows.size());
      std::vector<std::pair<std::int32_t, Rate>> changed;
      const auto start = std::chrono::steady_clock::now();
      make_views(flows, views);
      solver.solve(capacity, views.data(), views.size(), rates.data(), &state,
                   ids.data());
      for (int e = 0; e < events; ++e) {
        auto ev = make_event(rng, e, flows.size());
        bool ok;
        changed.clear();
        if (ev.departure) {
          const std::int32_t departing = ids[ev.victim];
          ok = solver.solve_warm(capacity, state, nullptr, 0, &departing, 1,
                                 changed);
          flows[ev.victim] = std::move(flows.back());
          flows.pop_back();
          ids[ev.victim] = ids.back();
          ids.pop_back();
        } else {
          const std::int32_t arriving_id = next_id++;
          const FlowArrival arrival{
              arriving_id, ev.arriving.links.data(),
              static_cast<std::int32_t>(ev.arriving.links.size()),
              ev.arriving.cap};
          ok = solver.solve_warm(capacity, state, &arrival, 1, nullptr, 0,
                                 changed);
          flows.push_back(std::move(ev.arriving));
          ids.push_back(arriving_id);
        }
        benchmark::DoNotOptimize(changed);
        if (!ok) {
          ++fallbacks;
          make_views(flows, views);
          rates.resize(flows.size());
          solver.solve(capacity, views.data(), views.size(), rates.data(),
                       &state, ids.data());
        }
      }
      const auto stop = std::chrono::steady_clock::now();
      warm_ms = std::min(
          warm_ms,
          std::chrono::duration<double, std::milli>(stop - start).count() /
              events);
    }

    const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
    std::printf(
        "flows=%-6d links=%-5d capped=%d cold=%8.4fms cone=%8.4fms "
        "speedup=%5.2fx fallbacks=%d/%d\n",
        cell.flows, cell.links, cell.capped ? 1 : 0, cold_ms, warm_ms,
        speedup, fallbacks, events);
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    {\"flows\": %d, \"links\": %d, \"capped\": %s, "
                 "\"cold_ms\": %.6f, \"cone_ms\": %.6f, "
                 "\"speedup\": %.3f, \"cone_fallbacks\": %d, "
                 "\"events\": %d}",
                 cell.flows, cell.links, cell.capped ? "true" : "false",
                 cold_ms, warm_ms, speedup, fallbacks, events);
    // Speed gates.  On spread contention (links >= 256 here; fig2's
    // regime, where a grelon-scale platform has thousands of NIC
    // links) a single-flow delta touches a small dependency cone and
    // the splice must beat a cold solve outright.  On dense few-link
    // populations every link is hot, so any delta's cone covers
    // essentially the whole trace and the splice degenerates to a
    // full replay plus undo overhead — parity with cold is the
    // theoretical floor there, and the bound below only catches a
    // pathological regression.  Cells under a few hundred flows time
    // at single-microsecond noise scale and are not speed-gated.
    if (cell.flows >= 400) {
      if (!cell.capped && cell.links >= 256 && speedup < 1.0)
        target_met = false;
      if (warm_ms > 1.6 * cold_ms) target_met = false;
    }
    warm_attempts += events;
    warm_declines += fallbacks;
  }
  // Warm-coverage floor: the cone engine only declines on structurally
  // invalid deltas (unknown departure, linkless arrival), never on
  // cascade depth, so coverage across the grid must stay essentially
  // total.  Pinned here so a regression that silently reintroduces a
  // decline path fails CI's quick --warmstart run.
  const double coverage =
      warm_attempts > 0
          ? 1.0 - static_cast<double>(warm_declines) / warm_attempts
          : 0.0;
  constexpr double kCoverageFloor = 0.95;
  std::printf("cone warm coverage: %.4f (floor %.2f)\n", coverage,
              kCoverageFloor);
  std::fprintf(out,
               "\n  ],\n  \"cone_coverage\": %.6f,\n"
               "  \"coverage_floor\": %.2f,\n"
               "  \"target\": \"cone warm re-solves beat full cold solves "
               "on every uncapped spread-contention cell (>= 400 flows, "
               ">= 256 links), stay within 1.6x of cold on dense cells, "
               "and keep coverage above the pinned floor\"\n}\n",
               coverage, kCoverageFloor);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!target_met) {
    std::fprintf(stderr, "FAIL: warm re-solve slower than a full cold solve\n");
    return 1;
  }
  if (coverage < kCoverageFloor) {
    std::fprintf(stderr, "FAIL: cone warm coverage %.4f below floor %.2f\n",
                 coverage, kCoverageFloor);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool grid = false;
  bool components = false;
  bool warmstart = false;
  bool quick = false;
  std::string out_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--grid") == 0) {
      grid = true;
    } else if (std::strcmp(argv[i], "--components") == 0) {
      components = true;
    } else if (std::strcmp(argv[i], "--warmstart") == 0) {
      warmstart = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a path\n");
        return 1;
      }
      out_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (grid + components + warmstart > 1) {
    std::fprintf(stderr,
                 "--grid, --components and --warmstart are exclusive\n");
    return 1;
  }
  if (components)
    return run_components(
        quick,
        out_path.empty() ? "bench/results/net_solver_components.json"
                         : out_path);
  if (warmstart)
    return run_warmstart(quick,
                         out_path.empty()
                             ? "bench/results/net_solver_warmstart.json"
                             : out_path);
  if (grid)
    return run_grid(quick, out_path.empty()
                               ? "bench/results/net_solver_scaling.json"
                               : out_path);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
