// Strassen study: schedule the 25-task Strassen matrix-multiplication
// workflow on one cluster, then tune the RATS parameters for it (the
// per-application tuning of the paper's Section IV-C, one Table IV
// cell) and compare naive vs tuned RATS.
//
//   $ ./strassen_study [samples] [seed]
//
// Demonstrates: corpus building for one family, reference makespans,
// tuning over the paper's (mindelta, maxdelta) and minrho grids, and
// applying tuned parameters.
#include <cstdio>
#include <cstdlib>

#include "daggen/corpus.hpp"
#include "exp/runner.hpp"
#include "exp/tuning.hpp"
#include "platform/grid5000.hpp"

int main(int argc, char** argv) {
  using namespace rats;
  CorpusOptions copt;
  copt.kernel_samples = argc > 1 ? std::atoi(argv[1]) : 10;
  copt.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  const Cluster cluster = grid5000::grillon();
  const auto corpus = build_family(DagFamily::Strassen, copt);
  std::printf("Strassen corpus: %zu samples on %s\n\n", corpus.size(),
              cluster.name().c_str());

  // Tune over the Figure 4 and Figure 5 grids.
  const TunedParams tuned = tune(corpus, cluster);
  std::printf("tuned: mindelta=%.2f maxdelta=%.2f minrho=%.2f\n\n",
              tuned.mindelta, tuned.maxdelta, tuned.minrho);

  // Compare naive vs tuned on each sample.
  SchedulerOptions hcpa;
  hcpa.kind = SchedulerKind::Hcpa;

  SchedulerOptions naive_delta;
  naive_delta.kind = SchedulerKind::RatsDelta;

  SchedulerOptions tuned_delta = naive_delta;
  tuned_delta.rats.mindelta = tuned.mindelta;
  tuned_delta.rats.maxdelta = tuned.maxdelta;

  std::printf("%-28s %10s %12s %12s\n", "sample", "HCPA (s)", "delta naive",
              "delta tuned");
  double sum_naive = 0, sum_tuned = 0;
  for (const CorpusEntry& entry : corpus) {
    const double ref =
        run_scenario(entry.graph, cluster, hcpa).makespan;
    const double mn = run_scenario(entry.graph, cluster, naive_delta).makespan;
    const double mt = run_scenario(entry.graph, cluster, tuned_delta).makespan;
    sum_naive += mn / ref;
    sum_tuned += mt / ref;
    std::printf("%-28s %10.2f %11.3fx %11.3fx\n", entry.name.c_str(), ref,
                mn / ref, mt / ref);
  }
  std::printf("\naverage relative makespan: naive %.3f, tuned %.3f\n",
              sum_naive / static_cast<double>(corpus.size()),
              sum_tuned / static_cast<double>(corpus.size()));
  return 0;
}
