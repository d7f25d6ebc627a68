// Unit tests for the application DAG model and graph algorithms.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "dag/graph_algorithms.hpp"
#include "dag/task_graph.hpp"

namespace rats {
namespace {

/// diamond:  a -> b, a -> c, b -> d, c -> d
TaskGraph diamond() {
  TaskGraph g;
  const TaskId a = g.add_task("a", 100, 2, 0.1);
  const TaskId b = g.add_task("b", 100, 2, 0.1);
  const TaskId c = g.add_task("c", 100, 2, 0.1);
  const TaskId d = g.add_task("d", 100, 2, 0.1);
  g.add_edge(a, b, 10);
  g.add_edge(a, c, 20);
  g.add_edge(b, d, 30);
  g.add_edge(c, d, 40);
  return g;
}

TEST(TaskGraph, AddTaskAssignsDenseIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_task("t0", 1, 1, 0), 0);
  EXPECT_EQ(g.add_task("t1", 1, 1, 0), 1);
  EXPECT_EQ(g.num_tasks(), 2);
}

TEST(TaskGraph, ConvenienceOverloadComputesFlops) {
  TaskGraph g;
  const TaskId t = g.add_task("t", 1000.0, 64.0, 0.2);
  EXPECT_DOUBLE_EQ(g.task(t).flops, 64000.0);
  EXPECT_DOUBLE_EQ(g.task(t).data_elems, 1000.0);
  EXPECT_DOUBLE_EQ(g.task(t).alpha, 0.2);
}

TEST(TaskGraph, RejectsBadTaskParameters) {
  TaskGraph g;
  EXPECT_THROW(g.add_task(Task{"x", -1, 10, 0.1}), Error);
  EXPECT_THROW(g.add_task(Task{"x", 1, -10, 0.1}), Error);
  EXPECT_THROW(g.add_task(Task{"x", 1, 10, 1.5}), Error);
}

TEST(TaskGraph, RejectsSelfLoop) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 1, 1, 0);
  EXPECT_THROW(g.add_edge(a, a, 5), Error);
}

TEST(TaskGraph, RejectsOutOfRangeIds) {
  TaskGraph g;
  g.add_task("a", 1, 1, 0);
  EXPECT_THROW(g.add_edge(0, 5, 1), Error);
  EXPECT_THROW((void)g.task(3), Error);
  EXPECT_THROW((void)g.edge(0), Error);
}

TEST(TaskGraph, RejectsNegativeEdgeVolume) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 1, 1, 0);
  const TaskId b = g.add_task("b", 1, 1, 0);
  EXPECT_THROW(g.add_edge(a, b, -1), Error);
}

TEST(TaskGraph, PredecessorsAndSuccessors) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.predecessors(3), (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(g.successors(0), (std::vector<TaskId>{1, 2}));
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_TRUE(g.successors(3).empty());
}

TEST(TaskGraph, EntryAndExitTasks) {
  const TaskGraph g = diamond();
  EXPECT_EQ(g.entry_tasks(), (std::vector<TaskId>{0}));
  EXPECT_EQ(g.exit_tasks(), (std::vector<TaskId>{3}));
}

TEST(TaskGraph, InputBytesAccumulate) {
  const TaskGraph g = diamond();
  EXPECT_DOUBLE_EQ(g.input_bytes(3), 70.0);
  EXPECT_DOUBLE_EQ(g.input_bytes(0), 0.0);
}

TEST(TaskGraph, ParallelEdgesAllowed) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 1, 1, 0);
  const TaskId b = g.add_task("b", 1, 1, 0);
  g.add_edge(a, b, 5);
  g.add_edge(a, b, 7);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.input_bytes(b), 12.0);
}

TEST(TaskGraph, AcyclicDetection) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 1, 1, 0);
  const TaskId b = g.add_task("b", 1, 1, 0);
  const TaskId c = g.add_task("c", 1, 1, 0);
  g.add_edge(a, b, 1);
  g.add_edge(b, c, 1);
  EXPECT_TRUE(g.is_acyclic());
  g.add_edge(c, a, 1);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, EmptyGraphInvalid) {
  TaskGraph g;
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, DotContainsAllNodesAndEdges) {
  const TaskGraph g = diamond();
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

// -------------------------------------------------------- algorithms

TEST(GraphAlgorithms, TopologicalOrderRespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[i])] = i;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_LT(pos[static_cast<std::size_t>(g.edge(e).src)],
              pos[static_cast<std::size_t>(g.edge(e).dst)]);
}

TEST(GraphAlgorithms, TopologicalOrderIsCanonical) {
  // Among simultaneously-ready tasks the smallest id pops first.
  const TaskGraph g = diamond();
  EXPECT_EQ(topological_order(g), (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(GraphAlgorithms, LevelsOfDiamond) {
  const TaskGraph g = diamond();
  EXPECT_EQ(task_levels(g), (std::vector<std::int32_t>{0, 1, 1, 2}));
}

TEST(GraphAlgorithms, LevelsAreLongestPathDepth) {
  // a -> b -> d and a -> d: d must land at level 2, not 1.
  TaskGraph g;
  const TaskId a = g.add_task("a", 1, 1, 0);
  const TaskId b = g.add_task("b", 1, 1, 0);
  const TaskId d = g.add_task("d", 1, 1, 0);
  g.add_edge(a, b, 1);
  g.add_edge(b, d, 1);
  g.add_edge(a, d, 1);
  EXPECT_EQ(task_levels(g), (std::vector<std::int32_t>{0, 1, 2}));
}

TEST(GraphAlgorithms, TasksByLevelGroups) {
  const TaskGraph g = diamond();
  const auto grouped = tasks_by_level(g);
  ASSERT_EQ(grouped.size(), 3u);
  EXPECT_EQ(grouped[0], (std::vector<TaskId>{0}));
  EXPECT_EQ(grouped[1], (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(grouped[2], (std::vector<TaskId>{3}));
}

TEST(GraphAlgorithms, BottomLevelsOfDiamond) {
  const TaskGraph g = diamond();
  // Unit node costs, edge costs = bytes.
  const auto bl = bottom_levels(
      g, [](TaskId) { return 1.0; },
      [&](EdgeId e) { return g.edge(e).bytes; });
  EXPECT_DOUBLE_EQ(bl[3], 1.0);
  EXPECT_DOUBLE_EQ(bl[1], 1.0 + 30.0 + 1.0);
  EXPECT_DOUBLE_EQ(bl[2], 1.0 + 40.0 + 1.0);
  EXPECT_DOUBLE_EQ(bl[0], 1.0 + 20.0 + 42.0);  // via c
}

TEST(GraphAlgorithms, CriticalPathOfDiamond) {
  const TaskGraph g = diamond();
  const auto cp = critical_path(
      g, [](TaskId) { return 1.0; },
      [&](EdgeId e) { return g.edge(e).bytes; });
  EXPECT_DOUBLE_EQ(cp.length, 63.0);
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0, 2, 3}));
}

TEST(GraphAlgorithms, CriticalPathSingleTask) {
  TaskGraph g;
  g.add_task("only", 1, 1, 0);
  const auto cp = critical_path(
      g, [](TaskId) { return 5.0; }, [](EdgeId) { return 0.0; });
  EXPECT_DOUBLE_EQ(cp.length, 5.0);
  EXPECT_EQ(cp.tasks, (std::vector<TaskId>{0}));
}

TEST(GraphAlgorithms, CriticalPathZeroEdgeCosts) {
  const TaskGraph g = diamond();
  const auto cp = critical_path(
      g, [](TaskId) { return 2.0; }, [](EdgeId) { return 0.0; });
  EXPECT_DOUBLE_EQ(cp.length, 6.0);  // three tasks deep
  EXPECT_EQ(cp.tasks.size(), 3u);
}

TEST(GraphAlgorithms, BottomLevelDominatesSuccessors) {
  // Property: bl(t) >= bl(s) for every successor s (positive costs).
  const TaskGraph g = diamond();
  const auto bl = bottom_levels(
      g, [](TaskId) { return 3.0; },
      [&](EdgeId e) { return g.edge(e).bytes; });
  for (TaskId t = 0; t < g.num_tasks(); ++t)
    for (TaskId s : g.successors(t))
      EXPECT_GT(bl[static_cast<std::size_t>(t)],
                bl[static_cast<std::size_t>(s)]);
}

}  // namespace
}  // namespace rats
