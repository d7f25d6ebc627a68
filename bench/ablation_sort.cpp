// Ablation: the RATS secondary ready-list sort (Section III-C).
//
// RATS keeps the bottom-level primary order but adds a stable
// secondary sort — increasing delta(t) for the delta strategy,
// decreasing gain(t) for time-cost.  This bench quantifies what that
// secondary sort contributes by running both strategies with and
// without it.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace rats;

int main(int argc, char** argv) {
  auto cfg = bench::parse_args(argc, argv);
  auto corpus = bench::cap_per_family(bench::make_corpus(cfg), cfg, 12);
  Cluster cluster = grid5000::grillon();

  auto algos = presets::naive_algos();  // HCPA, delta, time-cost
  for (std::size_t a = 1; a < 3; ++a) {
    AlgoSpec unsorted = algos[a];
    unsorted.name += " (no 2nd sort)";
    unsorted.options.secondary_sort = false;
    algos.push_back(unsorted);
  }

  auto data = run_experiment(corpus, cluster, algos, cfg.threads);

  bench::heading("Ablation: RATS secondary ready-list sort, " + cluster.name());
  Table table({"strategy", "avg relative makespan", "shorter than HCPA in"});
  for (std::size_t algo = 1; algo < data.algos(); ++algo) {
    auto series = relative_series(data, algo, 0, /*makespan=*/true);
    auto s = summarize_relative(series);
    table.add_row({data.algo_names[algo], fmt(s.mean_ratio, 3),
                   fmt_percent(s.fraction_better, 1)});
  }
  std::printf("%s", table.to_text().c_str());
  if (cfg.csv) std::printf("%s", table.to_csv().c_str());

  // Head-to-head: sorted vs unsorted variant of the same strategy.
  for (std::size_t a = 1; a < 3; ++a) {
    auto c = pairwise_compare(data, a, a + 2);
    std::printf("  %s with sort vs without: better %d, equal %d, worse %d\n",
                data.algo_names[a].c_str(), c.better, c.equal, c.worse);
  }
  return 0;
}
