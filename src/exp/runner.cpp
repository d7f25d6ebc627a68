#include "exp/runner.hpp"

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace rats {

namespace {
/// Counts with add_always: simulated_run_count() is a public API
/// contract (tests, the CLI's run-stats line) and must never miss a
/// run just because metrics are off.
obs::Counter& runs_counter() {
  static obs::Counter& c = obs::counter("exp/runs_simulated");
  return c;
}
}  // namespace

std::uint64_t simulated_run_count() { return runs_counter().value(); }

void note_simulated_run() { runs_counter().add_always(1); }

RunOutcome run_scenario(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& scheduler,
                        const SimulatorOptions& sim) {
  const Allocation allocation = allocate(
      graph, cluster, AllocationOptions{allocation_kind(scheduler.kind)});
  const RunOutcome outcome = simulate_run(
      graph, schedule_run(graph, cluster, allocation, scheduler), cluster, sim);
  note_simulated_run();
  return outcome;
}

Schedule schedule_run(const TaskGraph& graph, const Cluster& cluster,
                      const Allocation& allocation,
                      const SchedulerOptions& scheduler) {
  obs::PhaseTimer span("schedule");
  return build_schedule(graph, cluster, allocation, scheduler);
}

RunOutcome simulate_run(const TaskGraph& graph, const Schedule& schedule,
                        const Cluster& cluster, const SimulatorOptions& sim) {
  obs::PhaseTimer span("simulate");
  const SimulationResult result = simulate(graph, schedule, cluster, sim);
  return RunOutcome{result.makespan, result.total_work, result.faults};
}

}  // namespace rats
