// Mixed-parallel application model (paper Section II-A).
//
// An application is a DAG G = (N, E): nodes are moldable data-parallel
// tasks, edges carry the number of bytes the source task must send to
// the destination task.  Each task operates on a dataset of `m`
// double-precision elements, costs `a * m` flops sequentially and has a
// non-parallelizable Amdahl fraction `alpha`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rats {

using TaskId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr TaskId kInvalidTask = -1;

/// A moldable data-parallel task (a node of the application DAG).
struct Task {
  std::string name;     ///< human-readable label (for DOT / traces)
  double data_elems{};  ///< m: dataset size in double-precision elements
  Flops flops{};        ///< sequential computation volume (a * m)
  double alpha{};       ///< non-parallelizable fraction, in [0, 1]
};

/// A data dependence: `src` sends `bytes` to `dst` before `dst` starts.
struct Edge {
  TaskId src{};
  TaskId dst{};
  Bytes bytes{};
};

/// The application DAG, a plain value: tasks and edges are
/// append-only and ids are dense indices, so every per-task quantity
/// lives in a flat vector.  The graph stores structure only; each
/// scheduling step derives the order and levels it needs once per call
/// (see dag/graph_algorithms.hpp).
class TaskGraph {
 public:
  /// Adds a task and returns its id.
  TaskId add_task(Task task);

  /// Convenience: adds a task from its model parameters.  `m` is the
  /// dataset size in elements, `a` the per-element operation count.
  TaskId add_task(std::string name, double m, double a, double alpha);

  /// Adds a dependence edge carrying `bytes`.  Parallel edges between
  /// the same pair are allowed (their volumes simply accumulate when a
  /// redistribution is emitted).  Self-loops are rejected.
  EdgeId add_edge(TaskId src, TaskId dst, Bytes bytes);

  std::int32_t num_tasks() const { return static_cast<std::int32_t>(tasks_.size()); }
  std::int32_t num_edges() const { return static_cast<std::int32_t>(edges_.size()); }

  const Task& task(TaskId id) const { return tasks_[check_task(id)]; }
  Task& task(TaskId id) { return tasks_[check_task(id)]; }
  const Edge& edge(EdgeId id) const;

  /// Ids of edges entering `id` (one per predecessor dependence).
  std::span<const EdgeId> in_edges(TaskId id) const;
  /// Ids of edges leaving `id`.
  std::span<const EdgeId> out_edges(TaskId id) const;

  /// Predecessor task ids of `id` (in edge insertion order).
  std::vector<TaskId> predecessors(TaskId id) const;
  /// Successor task ids of `id` (in edge insertion order).
  std::vector<TaskId> successors(TaskId id) const;

  /// Tasks without predecessors / successors.
  std::vector<TaskId> entry_tasks() const;
  std::vector<TaskId> exit_tasks() const;

  /// Total bytes entering `id`.
  Bytes input_bytes(TaskId id) const;

  /// True iff the graph has no directed cycle.
  bool is_acyclic() const;

  /// Throws rats::Error if the graph is empty or cyclic.
  void validate() const;

  /// Graphviz DOT rendering (node labels include cost parameters).
  std::string to_dot() const;

 private:
  std::size_t check_task(TaskId id) const;

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<std::vector<EdgeId>> out_;
};

/// The canonical topological order of all task ids: among ready tasks
/// the smallest id goes first.  Throws rats::Error if the graph is
/// empty or cyclic.  Each scheduling step calls this once and passes
/// the order to every bottom-level and critical-path pass it makes.
std::vector<TaskId> topological_order(const TaskGraph& g);

}  // namespace rats
