// Single-scenario runner: schedule one application on one cluster with
// one algorithm, simulate the schedule with network contention, and
// report the two metrics of the paper: makespan and total work.
#pragma once

#include <cstdint>

#include "platform/cluster.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace rats {

/// The paper's two metrics for one (DAG, cluster, algorithm) run, plus
/// the fault accounting of the platform timeline (zero when healthy).
struct RunOutcome {
  Seconds makespan{};  ///< simulated, with contention
  double work{};       ///< processor-time area of the schedule
  FaultStats faults;   ///< see sim/simulator.hpp
};

/// Schedules `graph` on `cluster` with `scheduler` and simulates the
/// result.
RunOutcome run_scenario(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& scheduler,
                        const SimulatorOptions& sim = {});

/// Same run on a given step-one `allocation` (see the four-argument
/// build_schedule): maps, simulates and counts the run.
RunOutcome run_scenario(const TaskGraph& graph, const Cluster& cluster,
                        const Allocation& allocation,
                        const SchedulerOptions& scheduler,
                        const SimulatorOptions& sim = {});

/// Process-wide count of schedule+simulate runs executed so far.  The
/// one-pass CI gate snapshots it around `rats run --trace` to prove the
/// traced run matrix was simulated exactly once.
std::uint64_t simulated_run_count();

/// Counts one run for paths that schedule+simulate without going
/// through run_scenario (the per-task timeline of kind "single").
void note_simulated_run();

}  // namespace rats
