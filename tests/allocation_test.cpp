// Unit and property tests for the allocation step (CPA/HCPA/MCPA).
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "daggen/corpus.hpp"
#include "dag/graph_algorithms.hpp"
#include "platform/grid5000.hpp"
#include "sched/allocation.hpp"

namespace rats {
namespace {

Cluster small_cluster(int nodes = 8) {
  return Cluster::flat("alloc-test", nodes, 1e9, 100e-6, 125e6);
}

/// A chain of `n` identical tasks (flops each, alpha).
TaskGraph chain(int n, double flops = 1e9, double alpha = 0.1) {
  TaskGraph g;
  TaskId prev = kInvalidTask;
  for (int i = 0; i < n; ++i) {
    const TaskId t = g.add_task(Task{"c" + std::to_string(i), 1e6, flops, alpha});
    if (prev != kInvalidTask) g.add_edge(prev, t, 8e6);
    prev = t;
  }
  return g;
}

/// `n` independent tasks wrapped between an entry and an exit.
TaskGraph fork_join(int n, double flops = 1e9, double alpha = 0.1) {
  TaskGraph g;
  const TaskId a = g.add_task(Task{"in", 1e6, flops, alpha});
  const TaskId b = g.add_task(Task{"out", 1e6, flops, alpha});
  for (int i = 0; i < n; ++i) {
    const TaskId t = g.add_task(Task{"w" + std::to_string(i), 1e6, flops, alpha});
    g.add_edge(a, t, 8e6);
    g.add_edge(t, b, 8e6);
  }
  return g;
}

TEST(Allocation, SingleTaskGetsManyProcessors) {
  // With one task the critical path is the whole application: CPA
  // grows the allocation until C = T(t,p) <= W = p*T(t,p)/P, i.e. until
  // p approaches P (for small alpha).
  TaskGraph g;
  g.add_task(Task{"solo", 1e6, 50e9, 0.0});
  const Cluster c = small_cluster(8);
  AllocationOptions o;
  o.kind = AllocationKind::Cpa;
  const Allocation a = allocate(g, c, o);
  EXPECT_EQ(a[0], 8);  // perfectly parallel task takes the machine
}

TEST(Allocation, SerialTaskStaysNarrow) {
  TaskGraph g;
  g.add_task(Task{"serial", 1e6, 50e9, 1.0});
  const Allocation a = allocate(g, small_cluster(8));
  EXPECT_EQ(a[0], 1);  // no benefit, the benefit criterion never fires
}

TEST(Allocation, AllAllocationsWithinPlatform) {
  Rng rng(1);
  const TaskGraph g = generate_fft_dag(8, rng);
  for (auto kind :
       {AllocationKind::Cpa, AllocationKind::Hcpa, AllocationKind::Mcpa}) {
    AllocationOptions o;
    o.kind = kind;
    const Cluster c = grid5000::chti();
    const Allocation a = allocate(g, c, o);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(g.num_tasks()));
    for (int np : a) {
      EXPECT_GE(np, 1);
      EXPECT_LE(np, c.num_nodes());
    }
  }
}

TEST(Allocation, StopCriterionHolds) {
  // After convergence the critical path is no longer above the average
  // area (or every critical task is saturated).
  Rng rng(2);
  const TaskGraph g = generate_strassen_dag(rng);
  const Cluster c = grid5000::grillon();
  const AmdahlModel model(c.node_speed());
  AllocationOptions o;
  o.kind = AllocationKind::Hcpa;
  const Allocation a = allocate(g, c, o);

  const auto cp = critical_path(
      g,
      [&](TaskId t) {
        return model.execution_time(g.task(t), a[static_cast<std::size_t>(t)]);
      },
      [&](EdgeId e) { return allocation_edge_cost(c, g.edge(e).bytes); });
  const double area = average_area(g, c, model, a, AllocationKind::Hcpa);
  bool saturated = true;
  for (TaskId t : cp.tasks)
    if (a[static_cast<std::size_t>(t)] < c.num_nodes()) saturated = false;
  EXPECT_TRUE(cp.length <= area * (1 + 1e-9) || saturated);
}

TEST(Allocation, HcpaAllocatesNoMoreThanCpaOnLargeCluster) {
  // grelon has 120 processors for a 25-task graph: HCPA's modified W
  // stops earlier, so its total allocation is bounded by CPA's.
  Rng rng(3);
  const TaskGraph g = generate_strassen_dag(rng);
  const Cluster c = grid5000::grelon();
  AllocationOptions cpa{AllocationKind::Cpa};
  AllocationOptions hcpa{AllocationKind::Hcpa};
  const Allocation a_cpa = allocate(g, c, cpa);
  const Allocation a_hcpa = allocate(g, c, hcpa);
  const auto total = [](const Allocation& a) {
    return std::accumulate(a.begin(), a.end(), 0);
  };
  EXPECT_LE(total(a_hcpa), total(a_cpa));
  EXPECT_LT(total(a_hcpa), total(a_cpa));  // strictly smaller in practice
}

TEST(Allocation, HcpaEqualsCpaWhenTasksExceedProcessors) {
  // min(P, N) == P when N >= P: the two coincide.
  Rng rng(4);
  RandomDagParams p;
  p.num_tasks = 25;
  const TaskGraph g = generate_layered_dag(p, rng);
  const Cluster c = small_cluster(8);
  AllocationOptions cpa{AllocationKind::Cpa};
  AllocationOptions hcpa{AllocationKind::Hcpa};
  EXPECT_EQ(allocate(g, c, cpa), allocate(g, c, hcpa));
}

TEST(Allocation, McpaLevelsFitConcurrently) {
  Rng rng(5);
  const TaskGraph g = generate_fft_dag(8, rng);
  const Cluster c = grid5000::chti();
  AllocationOptions o;
  o.kind = AllocationKind::Mcpa;
  const Allocation a = allocate(g, c, o);
  const auto levels = tasks_by_level(g);
  for (const auto& level : levels) {
    int total = 0;
    for (TaskId t : level) total += a[static_cast<std::size_t>(t)];
    EXPECT_LE(total, c.num_nodes());
  }
}

TEST(Allocation, CpaMayViolateLevelConcurrency) {
  // The very limitation MCPA fixes: on a small cluster CPA can allocate
  // a level more processors than exist.
  Rng rng(6);
  const TaskGraph g = generate_fft_dag(16, rng);
  const Cluster c = small_cluster(4);
  AllocationOptions o;
  o.kind = AllocationKind::Cpa;
  const Allocation a = allocate(g, c, o);
  const auto levels = tasks_by_level(g);
  bool violated = false;
  for (const auto& level : levels) {
    int total = 0;
    for (TaskId t : level) total += a[static_cast<std::size_t>(t)];
    if (total > c.num_nodes()) violated = true;
  }
  EXPECT_TRUE(violated);
}

TEST(Allocation, ChainGetsWideAllocations) {
  // A chain's critical path is everything; allocations should grow
  // beyond 1 for parallelizable tasks.
  const TaskGraph g = chain(5, 20e9, 0.05);
  const Allocation a = allocate(g, small_cluster(8));
  for (int np : a) EXPECT_GT(np, 1);
}

TEST(Allocation, ForkJoinSharesProcessorsAcrossWorkers) {
  // Eight identical independent workers on eight processors: the
  // average-area bound keeps per-worker allocations near one.
  const TaskGraph g = fork_join(8, 10e9, 0.05);
  const Allocation a = allocate(g, small_cluster(8));
  double worker_total = 0;
  for (TaskId t = 2; t < g.num_tasks(); ++t)
    worker_total += a[static_cast<std::size_t>(t)];
  EXPECT_LE(worker_total / 8.0, 3.0);  // no worker hogs the cluster
}

TEST(Allocation, EdgeCostEstimateIsLatencyPlusSerialization) {
  const Cluster c = small_cluster();
  EXPECT_NEAR(allocation_edge_cost(c, 125e6), 100e-6 + 1.0, 1e-12);
}

TEST(Allocation, RejectsEmptyGraph) {
  TaskGraph g;
  EXPECT_THROW(allocate(g, small_cluster()), Error);
}

// Pins step one bitwise for all three allocators: per (kind, cluster),
// the sums of np and of (t+1)*np over every allocation of the 10 FFT
// and Strassen entries of the seed-42 corpus.  No golden runs CPA or
// MCPA end to end (every paper kind uses HCPA's step one), so this is
// their oracle.
TEST(Allocation, CorpusTotalsArePinnedForEveryKind) {
  CorpusOptions o;
  o.seed = 42;
  o.random_samples = 0;
  o.kernel_samples = 2;
  const auto corpus = build_corpus(o);
  ASSERT_EQ(corpus.size(), 10u);
  struct Expected {
    AllocationKind kind;
    Cluster cluster;
    std::int64_t procs;
    std::int64_t weighted;
  };
  const std::vector<Expected> expected = {
      {AllocationKind::Cpa, grid5000::chti(), 4725, 130883},
      {AllocationKind::Cpa, grid5000::grillon(), 10942, 306614},
      {AllocationKind::Cpa, grid5000::grelon(), 29508, 860857},
      {AllocationKind::Hcpa, grid5000::chti(), 4680, 130767},
      {AllocationKind::Hcpa, grid5000::grillon(), 9132, 285676},
      {AllocationKind::Hcpa, grid5000::grelon(), 13690, 507539},
      {AllocationKind::Mcpa, grid5000::chti(), 1132, 20418},
      {AllocationKind::Mcpa, grid5000::grillon(), 2655, 47866},
      {AllocationKind::Mcpa, grid5000::grelon(), 6960, 125503},
  };
  for (const Expected& x : expected) {
    AllocationOptions opt;
    opt.kind = x.kind;
    std::int64_t procs = 0;
    std::int64_t weighted = 0;
    for (const auto& entry : corpus) {
      const Allocation a = allocate(entry.graph, x.cluster, opt);
      for (std::size_t t = 0; t < a.size(); ++t) {
        procs += a[t];
        weighted += static_cast<std::int64_t>(t + 1) * a[t];
      }
    }
    const std::string where =
        x.cluster.name() + " kind " + std::to_string(static_cast<int>(x.kind));
    EXPECT_EQ(procs, x.procs) << where;
    EXPECT_EQ(weighted, x.weighted) << where;
  }
}

// Property: allocation is deterministic and respects bounds across the
// whole Table III parameter grid (1 sample each to keep runtime low).
class AllocationOnCorpus : public ::testing::TestWithParam<DagFamily> {};

TEST_P(AllocationOnCorpus, BoundsAndDeterminism) {
  CorpusOptions o;
  o.random_samples = 1;
  o.kernel_samples = 2;
  const auto corpus = build_family(GetParam(), o);
  const Cluster c = grid5000::grillon();
  for (const auto& entry : corpus) {
    const Allocation a1 = allocate(entry.graph, c);
    const Allocation a2 = allocate(entry.graph, c);
    EXPECT_EQ(a1, a2) << entry.name;
    for (int np : a1) {
      EXPECT_GE(np, 1) << entry.name;
      EXPECT_LE(np, c.num_nodes()) << entry.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, AllocationOnCorpus,
                         ::testing::Values(DagFamily::Layered,
                                           DagFamily::Irregular,
                                           DagFamily::FFT,
                                           DagFamily::Strassen));

}  // namespace
}  // namespace rats
