// Graph algorithms on application DAGs: levels, bottom levels and the
// critical path.
//
// Node and edge weights are supplied by callables so the same routines
// serve the allocation step (weights depend on the current allocation)
// and the mapping step (static priorities).
//
// The allocation loop recomputes the critical path once per processor
// it hands out, so the `*_into` function templates take the caller's
// topological order (computed once per scheduling step by
// `topological_order` in dag/task_graph.hpp), inline the cost
// callables and fill caller-owned scratch: a recomputation allocates
// nothing.  The `std::function` overloads are convenience wrappers
// that compute their own order.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "dag/task_graph.hpp"

namespace rats {

/// Time cost of a task under the weighting in effect.
using NodeCostFn = std::function<double(TaskId)>;
/// Time cost of traversing an edge (estimated redistribution time).
using EdgeCostFn = std::function<double(EdgeId)>;

/// Structural level of every task: entries are level 0, otherwise
/// 1 + max(level of predecessors) — the longest-path depth.
std::vector<std::int32_t> task_levels(const TaskGraph& g);

/// Tasks grouped by structural level, level 0 first.
std::vector<std::vector<TaskId>> tasks_by_level(const TaskGraph& g);

/// Fills `bl` with the bottom level of every task: node_cost(t) plus
/// the maximum over successors s of edge_cost(t->s) + bottom_level(s).
/// This is each task's distance to the end of the application, the
/// list-scheduling priority used by CPA/HCPA/RATS.  `order` is
/// `topological_order(g)`.
template <typename NodeF, typename EdgeF>
void bottom_levels_into(const TaskGraph& g, const std::vector<TaskId>& order,
                        NodeF&& node_cost, EdgeF&& edge_cost,
                        std::vector<double>& bl) {
  bl.assign(static_cast<std::size_t>(g.num_tasks()), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double tail = 0.0;
    for (EdgeId e : g.out_edges(t)) {
      const TaskId dst = g.edge(e).dst;
      tail = std::max(tail, edge_cost(e) + bl[static_cast<std::size_t>(dst)]);
    }
    bl[static_cast<std::size_t>(t)] = node_cost(t) + tail;
  }
}

/// Bottom levels as a fresh vector (convenience wrapper).
std::vector<double> bottom_levels(const TaskGraph& g, const NodeCostFn& node_cost,
                                  const EdgeCostFn& edge_cost);

/// Result of a critical path computation.
struct CriticalPath {
  double length{};            ///< C-infinity: weight of the heaviest path
  std::vector<TaskId> tasks;  ///< tasks on that path, entry to exit
};

/// The critical path under the given weights (ties broken
/// deterministically by task id).  `order` is `topological_order(g)`,
/// `bl` is scratch for the bottom levels and `cp` is overwritten.
/// Reuses every buffer, so repeated calls allocate nothing.
template <typename NodeF, typename EdgeF>
void critical_path_into(const TaskGraph& g, const std::vector<TaskId>& order,
                        NodeF&& node_cost, EdgeF&& edge_cost,
                        std::vector<double>& bl, CriticalPath& cp) {
  bottom_levels_into(g, order, node_cost, edge_cost, bl);
  cp.tasks.clear();

  // Start from the entry with the largest bottom level (ties: lowest
  // id — entries are scanned in id order).
  TaskId current = kInvalidTask;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!g.in_edges(t).empty()) continue;
    if (current == kInvalidTask ||
        bl[static_cast<std::size_t>(t)] > bl[static_cast<std::size_t>(current)])
      current = t;
  }
  RATS_REQUIRE(current != kInvalidTask, "graph has no entry task");
  cp.length = bl[static_cast<std::size_t>(current)];

  // Walk down: at each step pick the successor that realizes the
  // recurrence bl(t) = cost(t) + max(edge + bl(succ)).
  while (current != kInvalidTask) {
    cp.tasks.push_back(current);
    const double tail =
        bl[static_cast<std::size_t>(current)] - node_cost(current);
    TaskId next = kInvalidTask;
    double best_gap = 1e-9 * std::max(1.0, cp.length);
    for (EdgeId e : g.out_edges(current)) {
      const TaskId dst = g.edge(e).dst;
      const double gap =
          std::abs(edge_cost(e) + bl[static_cast<std::size_t>(dst)] - tail);
      if (gap < best_gap) {
        best_gap = gap;
        next = dst;
      }
    }
    current = next;
  }
}

/// The critical path as a fresh result (convenience wrapper).
CriticalPath critical_path(const TaskGraph& g, const NodeCostFn& node_cost,
                           const EdgeCostFn& edge_cost);

}  // namespace rats
