#include "dag/task_graph.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace rats {

namespace {

/// Kahn's algorithm with a min-heap frontier: among ready tasks the
/// smallest id pops first, which makes the order canonical.  Tasks on
/// or behind a cycle never become ready, so a cyclic graph yields
/// fewer than num_tasks() ids.
std::vector<TaskId> ready_order(const TaskGraph& g) {
  std::vector<std::int32_t> indegree(static_cast<std::size_t>(g.num_tasks()));
  std::vector<TaskId> heap;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    indegree[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(g.in_edges(t).size());
    if (indegree[static_cast<std::size_t>(t)] == 0) heap.push_back(t);
  }
  const auto cmp = [](TaskId a, TaskId b) { return a > b; };
  std::make_heap(heap.begin(), heap.end(), cmp);

  std::vector<TaskId> order;
  order.reserve(indegree.size());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const TaskId t = heap.back();
    heap.pop_back();
    order.push_back(t);
    for (EdgeId e : g.out_edges(t)) {
      const TaskId dst = g.edge(e).dst;
      if (--indegree[static_cast<std::size_t>(dst)] == 0) {
        heap.push_back(dst);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  return order;
}

}  // namespace

TaskId TaskGraph::add_task(Task task) {
  RATS_REQUIRE(task.data_elems >= 0, "dataset size must be non-negative");
  RATS_REQUIRE(task.flops >= 0, "flops must be non-negative");
  RATS_REQUIRE(task.alpha >= 0.0 && task.alpha <= 1.0,
               "alpha must be in [0,1]");
  tasks_.push_back(std::move(task));
  in_.emplace_back();
  out_.emplace_back();
  return num_tasks() - 1;
}

TaskId TaskGraph::add_task(std::string name, double m, double a, double alpha) {
  return add_task(Task{std::move(name), m, a * m, alpha});
}

EdgeId TaskGraph::add_edge(TaskId src, TaskId dst, Bytes bytes) {
  check_task(src);
  check_task(dst);
  RATS_REQUIRE(src != dst, "self-loop edges are not allowed");
  RATS_REQUIRE(bytes >= 0, "edge volume must be non-negative");
  const EdgeId id = num_edges();
  edges_.push_back(Edge{src, dst, bytes});
  out_[static_cast<std::size_t>(src)].push_back(id);
  in_[static_cast<std::size_t>(dst)].push_back(id);
  return id;
}

const Edge& TaskGraph::edge(EdgeId id) const {
  RATS_REQUIRE(id >= 0 && id < num_edges(), "edge id out of range");
  return edges_[static_cast<std::size_t>(id)];
}

std::span<const EdgeId> TaskGraph::in_edges(TaskId id) const {
  return in_[check_task(id)];
}

std::span<const EdgeId> TaskGraph::out_edges(TaskId id) const {
  return out_[check_task(id)];
}

std::vector<TaskId> TaskGraph::predecessors(TaskId id) const {
  std::vector<TaskId> result;
  result.reserve(in_edges(id).size());
  for (EdgeId e : in_edges(id)) result.push_back(edge(e).src);
  return result;
}

std::vector<TaskId> TaskGraph::successors(TaskId id) const {
  std::vector<TaskId> result;
  result.reserve(out_edges(id).size());
  for (EdgeId e : out_edges(id)) result.push_back(edge(e).dst);
  return result;
}

std::vector<TaskId> TaskGraph::entry_tasks() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t)
    if (in_[static_cast<std::size_t>(t)].empty()) result.push_back(t);
  return result;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  std::vector<TaskId> result;
  for (TaskId t = 0; t < num_tasks(); ++t)
    if (out_[static_cast<std::size_t>(t)].empty()) result.push_back(t);
  return result;
}

Bytes TaskGraph::input_bytes(TaskId id) const {
  Bytes total = 0;
  for (EdgeId e : in_edges(id)) total += edge(e).bytes;
  return total;
}

bool TaskGraph::is_acyclic() const {
  return ready_order(*this).size() == tasks_.size();
}

void TaskGraph::validate() const { topological_order(*this); }

std::vector<TaskId> topological_order(const TaskGraph& g) {
  RATS_REQUIRE(g.num_tasks() > 0, "graph has no tasks");
  std::vector<TaskId> order = ready_order(g);
  RATS_REQUIRE(order.size() == static_cast<std::size_t>(g.num_tasks()),
               "graph contains a cycle");
  return order;
}

std::string TaskGraph::to_dot() const {
  std::ostringstream out;
  out << "digraph application {\n  rankdir=TB;\n";
  for (TaskId t = 0; t < num_tasks(); ++t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    out << "  n" << t << " [label=\"" << task.name << "\\nm="
        << task.data_elems << " flops=" << task.flops << "\\nalpha="
        << task.alpha << "\"];\n";
  }
  for (const Edge& e : edges_)
    out << "  n" << e.src << " -> n" << e.dst << " [label=\"" << e.bytes
        << "B\"];\n";
  out << "}\n";
  return out.str();
}

std::size_t TaskGraph::check_task(TaskId id) const {
  RATS_REQUIRE(id >= 0 && id < num_tasks(), "task id out of range");
  return static_cast<std::size_t>(id);
}

}  // namespace rats
