// Allocation step of two-step mixed-parallel scheduling (paper
// Sections II-C and III): decide how many processors each moldable
// task gets, before any task is mapped to concrete processors.
//
// All three allocators share the CPA loop: start with one processor
// per task and, while the critical path C-infinity exceeds the average
// area W (both lower bounds on the makespan), give one more processor
// to the critical-path task that benefits the most.  They differ in
// the stopping bound and per-task caps:
//
//  * CPA   — W = total work / P.  On platforms with many more
//            processors than the application can use, W is tiny and
//            CPA over-allocates, serializing independent tasks.
//  * HCPA  — W' = total work / min(P, N_tasks): the modified average
//            area removes the large-P bias (following N'takpe, Suter &
//            Casanova's HCPA, whose allocation procedure RATS reuses).
//  * MCPA  — CPA plus a per-level constraint: the tasks of a DAG level
//            must be able to run concurrently (sum of the level's
//            allocations <= P).  Meaningful for regular layered DAGs.
#pragma once

#include <vector>

#include "dag/task_graph.hpp"
#include "model/amdahl.hpp"
#include "platform/cluster.hpp"

namespace rats {

/// Which allocation procedure to run.
enum class AllocationKind { Cpa, Hcpa, Mcpa };

/// Processor count per task (indexed by TaskId).
using Allocation = std::vector<int>;

/// Options for the allocation step.
struct AllocationOptions {
  AllocationKind kind = AllocationKind::Hcpa;
};

/// Runs the allocation step for `graph` on `cluster` (one
/// `schedule/allocate` span, one `sched/allocations` count).
Allocation allocate(const TaskGraph& graph, const Cluster& cluster,
                    const AllocationOptions& options = {});

/// Simple contention-free transfer-time estimate used as the edge
/// weight in critical-path computations: latency + bytes / bandwidth
/// of a node link.  (The real redistribution cost depends on the
/// mapping, which does not exist yet at allocation time.)
Seconds allocation_edge_cost(const Cluster& cluster, Bytes bytes);

/// The average-area lower bound W used by the given allocator on this
/// platform (exposed for tests and the ablation bench).
double average_area(const TaskGraph& graph, const Cluster& cluster,
                    const AmdahlModel& model, const Allocation& alloc,
                    AllocationKind kind);

}  // namespace rats
