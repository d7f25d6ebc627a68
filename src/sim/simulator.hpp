// Discrete-event execution of a schedule on a cluster — the SimGrid
// replacement (paper Section IV).
//
// The simulator executes a static schedule faithfully:
//  * every task runs on exactly the processors its placement names, for
//    the duration given by the Amdahl model (compute times are not
//    affected by network traffic);
//  * a processor executes its tasks in schedule (seq) order — the list
//    scheduler's decisions are never reordered;
//  * when a task completes, one block redistribution per out-edge
//    starts immediately; its point-to-point transfers become fluid
//    network flows that contend with all other in-flight transfers
//    under Max-Min fairness (this is where ignoring redistributions at
//    allocation time hurts, and what RATS mitigates);
//  * a task starts once all its in-edge redistributions have completed
//    and it is at the head of the queue of every processor it uses.
//
// The resulting makespan therefore includes network contention that
// the schedulers' internal estimates ignore, exactly as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "model/amdahl.hpp"
#include "net/fluid_network.hpp"
#include "platform/timeline.hpp"
#include "sim/schedule.hpp"

namespace rats {

/// Per-task timing observed during simulation.
struct TaskTiming {
  Seconds data_ready{};  ///< all input redistributions complete
  Seconds start{};       ///< execution began (data ready + processors free)
  Seconds finish{};      ///< execution completed
};

/// Fault/degradation accounting of one run; all zero on a healthy
/// (event-free) timeline.
struct FaultStats {
  std::int32_t tasks_killed = 0;     ///< executions aborted by node failures
  std::int32_t tasks_remapped = 0;   ///< placement slots moved (reschedule)
  std::int32_t redists_aborted = 0;  ///< redistributions rolled back
  /// Integral over [0, makespan] of (base - effective) capacity summed
  /// over links — bytes of transfer capacity lost to events/failures.
  double capacity_seconds_lost = 0;
  /// Integral of #down nodes over [0, makespan].
  double node_seconds_down = 0;
};

/// Outcome of simulating one schedule.
struct SimulationResult {
  Seconds makespan{};                ///< max task finish time
  double total_work{};               ///< sum of np(t) * T(t, np(t))
  Bytes network_bytes{};             ///< bytes that crossed the network
  std::vector<TaskTiming> timeline;  ///< indexed by TaskId
  FaultStats faults;                 ///< platform-event accounting
};

/// Simulation knobs.
struct SimulatorOptions {
  /// When false, redistributions complete after their contention-free
  /// time instead of being simulated as contending fluid flows (used by
  /// the ablation_contention scenario kind).
  bool contention = true;
  /// Opt-in structured tracing (see trace/trace.hpp): task start/finish,
  /// redistribution intervals, component solves and rate changes are
  /// recorded into the sink.  Must outlive the simulate() call.
  TraceSink* trace = nullptr;
  /// Platform event timeline (see platform/timeline.hpp): background
  /// traffic, slowdowns, node failures/restarts applied mid-simulation.
  /// nullptr (or an empty timeline) simulates the healthy platform and
  /// is bit-identical to the pre-timeline simulator.  Must outlive the
  /// simulate() call.  Fail-stop semantics:
  ///  * a running task with a failed processor is killed and re-run
  ///    (FailPolicy::Hold: same placement, after the node restarts;
  ///    FailPolicy::Reschedule: failed slots are remapped onto the
  ///    least-loaded surviving nodes and all inputs re-delivered);
  ///  * in-flight redistributions touching a failed node roll back
  ///    entirely and re-send once their endpoints are all up;
  ///  * completed outputs and staged inputs are durable but
  ///    unreachable while their node is down — a consumer that needs
  ///    data from a node that never restarts stalls with an error;
  ///  * events at one timestamp are one atomic batch (fail + restart
  ///    at the same instant is a no-op).
  const PlatformTimeline* timeline = nullptr;
  /// Opt-in invariant validation (the `rats fuzz` oracle hook): the
  /// fluid network checks Max-Min rate conservation and warm ≡ cold
  /// solver equivalence after every rate flush, throwing rats::Error on
  /// the first violation.  Off by default — results are byte-identical
  /// either way, validation only adds the checks (and their cost).
  bool validate = false;
};

/// Simulates `schedule` for `graph` on `cluster`; throws on invalid
/// schedules (unmapped tasks, dependence-violating orders).
SimulationResult simulate(const TaskGraph& graph, const Schedule& schedule,
                          const Cluster& cluster,
                          const SimulatorOptions& options = {});

}  // namespace rats
