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
/// result: allocates, then schedule_run, then simulate_run, then counts
/// the run.
RunOutcome run_scenario(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& scheduler,
                        const SimulatorOptions& sim = {});

/// Step two of a run on a given step-one `allocation` (see the
/// four-argument build_schedule), under the "schedule" span.
Schedule schedule_run(const TaskGraph& graph, const Cluster& cluster,
                      const Allocation& allocation,
                      const SchedulerOptions& scheduler);

/// Simulates a run's `schedule` under the "simulate" span.  Counts no
/// run: a run matrix simulates each distinct schedule once and counts
/// every run that reads it.
RunOutcome simulate_run(const TaskGraph& graph, const Schedule& schedule,
                        const Cluster& cluster, const SimulatorOptions& sim);

/// Process-wide count of runs executed so far, whether or not a run
/// matrix shared a repeat's simulation (`sim/simulations` counts the
/// simulations).  The one-pass CI gate snapshots it around `rats run
/// --trace` to prove the traced run matrix ran each run exactly once.
std::uint64_t simulated_run_count();

/// Counts one run: run_experiments calls it for every run it does not
/// inject, and run_scenario and kind "single"'s run_single call it
/// too.
void note_simulated_run();

}  // namespace rats
