// Two-step scheduler facade: allocation + mapping in one call, or the
// mapping alone on an allocation computed once and shared.
//
// The five end-to-end schedulers of this repository:
//   Cpa          — CPA allocation + baseline mapping
//   Mcpa         — MCPA allocation + baseline mapping
//   Hcpa         — HCPA allocation + baseline mapping (the paper's baseline)
//   RatsDelta    — HCPA allocation + delta redistribution-aware mapping
//   RatsTimeCost — HCPA allocation + time-cost redistribution-aware mapping
#pragma once

#include <string>

#include "sched/mapping.hpp"

namespace rats {

enum class SchedulerKind { Cpa, Mcpa, Hcpa, RatsDelta, RatsTimeCost };

/// Printable scheduler name ("HCPA", "RATS-delta", ...).
std::string to_string(SchedulerKind kind);

/// Tunable RATS parameters (paper Section IV-C, Table IV).
struct RatsParams {
  double mindelta = -0.5;  ///< delta: max fraction of Np(t) removable
  double maxdelta = 0.5;   ///< delta: max fraction of Np(t) addable
  double minrho = 0.5;     ///< time-cost: minimal admissible work ratio
  bool packing = true;     ///< time-cost: allow packing
};

struct SchedulerOptions {
  SchedulerKind kind = SchedulerKind::Hcpa;
  RatsParams rats{};
  bool secondary_sort = true;  ///< RATS ready-list secondary sort (ablation)
};

/// The allocation procedure (step one) a scheduler runs: its own for
/// CPA and MCPA, HCPA's for HCPA and both RATS mappings.
AllocationKind allocation_kind(SchedulerKind kind);

/// Runs the requested two-step scheduler end to end: allocates, then
/// maps with the overload below.
Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options = {});

/// Runs step two of `options.kind` on a given step-one `allocation`,
/// i.e. `allocate` with `allocation_kind(options.kind)` — how a run
/// matrix shares one allocation among the algorithms that read it.
Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const Allocation& allocation,
                        const SchedulerOptions& options);

}  // namespace rats
