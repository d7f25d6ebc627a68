#include "dag/graph_algorithms.hpp"

#include <algorithm>

namespace rats {

std::vector<std::int32_t> task_levels(const TaskGraph& g) {
  std::vector<std::int32_t> level(static_cast<std::size_t>(g.num_tasks()), 0);
  for (TaskId t : topological_order(g))
    for (EdgeId e : g.in_edges(t)) {
      const TaskId src = g.edge(e).src;
      level[static_cast<std::size_t>(t)] =
          std::max(level[static_cast<std::size_t>(t)],
                   level[static_cast<std::size_t>(src)] + 1);
    }
  return level;
}

std::vector<std::vector<TaskId>> tasks_by_level(const TaskGraph& g) {
  const auto level = task_levels(g);
  const auto depth =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end()) + 1;
  std::vector<std::vector<TaskId>> grouped(static_cast<std::size_t>(depth));
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    grouped[static_cast<std::size_t>(level[static_cast<std::size_t>(t)])]
        .push_back(t);
  return grouped;
}

std::vector<double> bottom_levels(const TaskGraph& g,
                                  const NodeCostFn& node_cost,
                                  const EdgeCostFn& edge_cost) {
  std::vector<double> bl;
  bottom_levels_into(g, topological_order(g), node_cost, edge_cost, bl);
  return bl;
}

CriticalPath critical_path(const TaskGraph& g, const NodeCostFn& node_cost,
                           const EdgeCostFn& edge_cost) {
  CriticalPath cp;
  std::vector<double> bl;
  critical_path_into(g, topological_order(g), node_cost, edge_cost, bl, cp);
  return cp;
}

}  // namespace rats
