// Ablation: network contention (Section IV-D's explanation).
//
// The schedulers estimate redistribution times without cross-traffic;
// the simulator then executes the schedule with Max-Min fair link
// sharing.  This bench simulates the same schedules with contention on
// and off, quantifying how much contention inflates makespans — the
// effect redistribution-aware mapping mitigates — and how the error of
// the schedulers' internal estimate shrinks when redistributions are
// avoided.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "exp/parallel.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

using namespace rats;

int main(int argc, char** argv) {
  auto cfg = bench::parse_args(argc, argv);
  auto corpus = bench::cap_per_family(bench::make_corpus(cfg), cfg, 12);
  Cluster cluster = grid5000::grillon();

  auto algos = presets::naive_algos();
  bench::heading("Ablation: contention vs contention-free simulation, " +
                 cluster.name());
  Table table({"algorithm", "avg makespan inflation by contention",
               "avg net bytes / DAG", "max inflation"});
  for (const auto& algo : algos) {
    std::vector<double> inflation(corpus.size());
    std::vector<double> bytes(corpus.size());
    parallel_for(corpus.size(), [&](std::size_t i) {
      Schedule s = build_schedule(corpus[i].graph, cluster, algo.options);
      SimulatorOptions with, without;
      without.contention = false;
      auto rw = simulate(corpus[i].graph, s, cluster, with);
      auto ro = simulate(corpus[i].graph, s, cluster, without);
      inflation[i] = rw.makespan / ro.makespan;
      bytes[i] = rw.network_bytes;
    }, cfg.threads);
    double sum = 0, mx = 0, bsum = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      sum += inflation[i];
      mx = std::max(mx, inflation[i]);
      bsum += bytes[i];
    }
    table.add_row({algo.name, fmt(sum / corpus.size(), 3),
                   fmt(bsum / corpus.size() / 1e9, 2) + " GB",
                   fmt(mx, 3)});
  }
  std::printf("%s", table.to_text().c_str());
  if (cfg.csv) std::printf("%s", table.to_csv().c_str());
  std::printf(
      "\n  expectation: RATS schedules move fewer bytes (redistributions\n"
      "  avoided), so contention inflates them less than HCPA's.\n");
  return 0;
}
