#include "sched/allocation.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dag/graph_algorithms.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace rats {

Seconds allocation_edge_cost(const Cluster& cluster, Bytes bytes) {
  // Any node link is representative: the cluster is homogeneous.
  const LinkSpec& link = cluster.link(0);
  return link.latency + bytes / link.bandwidth;
}

double average_area(const TaskGraph& graph, const Cluster& cluster,
                    const AmdahlModel& model, const Allocation& alloc,
                    AllocationKind kind) {
  double total_work = 0;
  for (TaskId t = 0; t < graph.num_tasks(); ++t)
    total_work += model.work(graph.task(t),
                             alloc[static_cast<std::size_t>(t)]);
  double procs = cluster.num_nodes();
  if (kind == AllocationKind::Hcpa) {
    // Modified average area: with far more processors than tasks the
    // plain W underestimates grossly and CPA over-allocates; bounding
    // the divisor by the task count removes that bias.
    procs = std::min(procs, static_cast<double>(graph.num_tasks()));
  }
  return total_work / procs;
}

Allocation allocate(const TaskGraph& graph, const Cluster& cluster,
                    const AllocationOptions& options) {
  // Stable: a run matrix allocates once per step-one table slot, so the
  // count does not depend on the thread count.
  static obs::Counter& calls =
      obs::counter("sched/allocations", obs::Stability::Stable);
  calls.inc();
  obs::PhaseTimer span("schedule/allocate");
  const std::vector<TaskId> order = topological_order(graph);  // validates
  const AmdahlModel model(cluster.node_speed());
  const int num_procs = cluster.num_nodes();
  Allocation alloc(static_cast<std::size_t>(graph.num_tasks()), 1);

  // Per-level groups for the MCPA concurrency constraint.
  std::vector<std::int32_t> level;
  std::vector<std::int64_t> level_total;  // sum of allocations per level
  if (options.kind == AllocationKind::Mcpa) {
    level = task_levels(graph);
    const auto depth = *std::max_element(level.begin(), level.end()) + 1;
    level_total.assign(static_cast<std::size_t>(depth), 0);
    for (auto l : level) ++level_total[static_cast<std::size_t>(l)];
  }

  const auto node_cost = [&](TaskId t) {
    return model.execution_time(graph.task(t),
                                alloc[static_cast<std::size_t>(t)]);
  };
  const auto edge_cost = [&](EdgeId e) {
    return allocation_edge_cost(cluster, graph.edge(e).bytes);
  };

  auto may_grow = [&](TaskId t) {
    const int np = alloc[static_cast<std::size_t>(t)];
    if (np >= num_procs) return false;
    if (options.kind == AllocationKind::Mcpa) {
      const auto l = static_cast<std::size_t>(level[static_cast<std::size_t>(t)]);
      if (level_total[l] + 1 > num_procs) return false;
    }
    return true;
  };

  // Each iteration grows one task by one processor, then recomputes the
  // critical path in full over the one order.  At most N*(P-1)
  // iterations run: may_grow refuses a task that holds all P processors.
  std::vector<double> bl_scratch;
  CriticalPath cp;
  while (true) {
    critical_path_into(graph, order, node_cost, edge_cost, bl_scratch, cp);
    const double area =
        average_area(graph, cluster, model, alloc, options.kind);
    if (cp.length <= area) break;  // C-infinity <= W: optimal trade-off

    // Give one processor to the critical-path task whose average
    // time-per-processor drops the most (the CPA benefit criterion).
    TaskId best = kInvalidTask;
    double best_benefit = 0;
    for (TaskId t : cp.tasks) {
      if (!may_grow(t)) continue;
      const int np = alloc[static_cast<std::size_t>(t)];
      const double benefit =
          model.execution_time(graph.task(t), np) / np -
          model.execution_time(graph.task(t), np + 1) / (np + 1);
      if (best == kInvalidTask || benefit > best_benefit) {
        best = t;
        best_benefit = benefit;
      }
    }
    if (best == kInvalidTask) break;  // every critical task is saturated

    ++alloc[static_cast<std::size_t>(best)];
    if (options.kind == AllocationKind::Mcpa)
      ++level_total[static_cast<std::size_t>(
          level[static_cast<std::size_t>(best)])];
  }
  return alloc;
}

}  // namespace rats
