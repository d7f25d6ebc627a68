#include "sched/scheduler.hpp"

#include "obs/span.hpp"

namespace rats {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Cpa: return "CPA";
    case SchedulerKind::Mcpa: return "MCPA";
    case SchedulerKind::Hcpa: return "HCPA";
    case SchedulerKind::RatsDelta: return "RATS-delta";
    case SchedulerKind::RatsTimeCost: return "RATS-time-cost";
  }
  return "?";
}

namespace {

/// The two steps of each scheduler — the one place a kind resolves.
struct Steps {
  AllocationKind allocation;
  MappingMode mapping;
};

Steps steps_of(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Cpa:
      return {AllocationKind::Cpa, MappingMode::Baseline};
    case SchedulerKind::Mcpa:
      return {AllocationKind::Mcpa, MappingMode::Baseline};
    case SchedulerKind::Hcpa:
      return {AllocationKind::Hcpa, MappingMode::Baseline};
    case SchedulerKind::RatsDelta:  // RATS reuses HCPA's step one
      return {AllocationKind::Hcpa, MappingMode::Delta};
    case SchedulerKind::RatsTimeCost:
      return {AllocationKind::Hcpa, MappingMode::TimeCost};
  }
  return {AllocationKind::Hcpa, MappingMode::Baseline};
}

}  // namespace

AllocationKind allocation_kind(SchedulerKind kind) {
  return steps_of(kind).allocation;
}

Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options) {
  const Allocation allocation = allocate(
      graph, cluster, AllocationOptions{allocation_kind(options.kind)});
  return build_schedule(graph, cluster, allocation, options);
}

Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const Allocation& allocation,
                        const SchedulerOptions& options) {
  MappingOptions map_opts;
  map_opts.mode = steps_of(options.kind).mapping;
  map_opts.secondary_sort = options.secondary_sort;
  map_opts.mindelta = options.rats.mindelta;
  map_opts.maxdelta = options.rats.maxdelta;
  map_opts.minrho = options.rats.minrho;
  map_opts.packing = options.rats.packing;
  obs::PhaseTimer span("schedule/map");
  return map_tasks(graph, cluster, allocation, map_opts);
}

}  // namespace rats
