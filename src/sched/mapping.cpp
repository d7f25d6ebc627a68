#include "sched/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "dag/graph_algorithms.hpp"
#include "redist/estimate.hpp"

namespace rats {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// One evaluated placement option for a task.
struct Candidate {
  std::vector<NodeId> procs;
  Seconds start = kInf;
  Seconds finish = kInf;
  /// Parent whose processor set this candidate adopts (delta strategy
  /// consumption bookkeeping); kInvalidTask for baseline placements.
  TaskId inherited_from = kInvalidTask;
  bool valid() const { return std::isfinite(finish); }
};

class Mapper {
 public:
  Mapper(const TaskGraph& g, const Cluster& cluster, const Allocation& alloc,
         const MappingOptions& opt)
      : g_(g),
        cluster_(cluster),
        alloc_(alloc),
        opt_(opt),
        model_(cluster.node_speed()),
        proc_ready_(static_cast<std::size_t>(cluster.num_nodes()), 0.0),
        consumed_(static_cast<std::size_t>(g.num_tasks()), 0) {
    RATS_REQUIRE(alloc.size() == static_cast<std::size_t>(g.num_tasks()),
                 "allocation does not cover the graph");
    for (int np : alloc)
      RATS_REQUIRE(np >= 1 && np <= cluster.num_nodes(),
                   "allocation out of platform range");
  }

  Schedule run() {
    Schedule sched;
    sched.placements.resize(static_cast<std::size_t>(g_.num_tasks()));
    sched_ = &sched;

    // Static priorities: bottom levels with step-one execution times
    // and contention-free transfer estimates as edge weights.
    bottom_levels_into(
        g_, topological_order(g_),
        [&](TaskId t) {
          return model_.execution_time(g_.task(t), np_alloc(t));
        },
        [&](EdgeId e) {
          return allocation_edge_cost(cluster_, g_.edge(e).bytes);
        },
        bl_);

    std::vector<std::int32_t> pending(static_cast<std::size_t>(g_.num_tasks()));
    for (TaskId t = 0; t < g_.num_tasks(); ++t)
      pending[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(g_.in_edges(t).size());
    std::vector<TaskId> ready;
    for (TaskId t = 0; t < g_.num_tasks(); ++t)
      if (pending[static_cast<std::size_t>(t)] == 0) ready.push_back(t);

    // Algorithm 1: rounds over the ready frontier.  Tasks enabled by
    // this round's mappings join the *next* round (outer while); within
    // a round, re-sorting before every pop subsumes line 11's
    // "recompute delta / execution time and resort if necessary",
    // because mapping a task changes processor availability and
    // consumes the parent allocation other ready tasks may have
    // counted on.
    std::vector<TaskId> next;
    while (!ready.empty()) {
      sort_ready(ready);
      const TaskId t = ready.front();
      ready.erase(ready.begin());
      map_one(t);
      for (EdgeId e : g_.out_edges(t)) {
        const TaskId dst = g_.edge(e).dst;
        if (--pending[static_cast<std::size_t>(dst)] == 0)
          next.push_back(dst);
      }
      if (ready.empty()) {
        ready = std::move(next);
        next.clear();
      }
    }
    return sched;
  }

 private:
  int np_alloc(TaskId t) const { return alloc_[static_cast<std::size_t>(t)]; }
  int np_mapped(TaskId t) const {
    return static_cast<int>(sched_->of(t).procs.size());
  }

  // ---- placement evaluation ------------------------------------------

  /// The `np` processors that become free earliest (ties by id).
  std::vector<NodeId> earliest_procs(int np) const {
    std::vector<NodeId> ids(proc_ready_.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = static_cast<NodeId>(i);
    std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
      const Seconds ra = proc_ready_[static_cast<std::size_t>(a)];
      const Seconds rb = proc_ready_[static_cast<std::size_t>(b)];
      if (ra != rb) return ra < rb;
      return a < b;
    });
    ids.resize(static_cast<std::size_t>(np));
    return ids;
  }

  /// Estimated start/finish of `t` on the given processor set.
  Candidate evaluate(TaskId t, std::vector<NodeId> procs) const {
    Candidate c;
    Seconds data_ready = 0;
    for (EdgeId e : g_.in_edges(t)) {
      const Edge& edge = g_.edge(e);
      const TaskPlacement& pred = sched_->of(edge.src);
      const Seconds redist = estimate_redistribution_time(
          cluster_, planner_.plan(edge.bytes, pred.procs, procs));
      data_ready = std::max(data_ready, pred.est_finish + redist);
    }
    Seconds procs_free = 0;
    for (NodeId p : procs)
      procs_free = std::max(procs_free, proc_ready_[static_cast<std::size_t>(p)]);
    c.start = std::max(data_ready, procs_free);
    c.finish = c.start + model_.execution_time(
                             g_.task(t), static_cast<int>(procs.size()));
    c.procs = std::move(procs);
    return c;
  }

  /// Baseline (CPA/HCPA/MCPA) placement: keep the step-one allocation
  /// size and take the earliest-free processors.  The finish estimate
  /// accounts for redistribution delays, but the *choice* of processors
  /// does not chase predecessor sets — the decoupling the paper sets
  /// out to fix ("most of these algorithms do not take data
  /// redistributions into account").
  Candidate baseline_candidate(TaskId t) const {
    return evaluate(t, earliest_procs(np_alloc(t)));
  }

  // ---- delta strategy --------------------------------------------------
  //
  // A predecessor's processor set can be inherited by only one task:
  // once a node is mapped onto a parent's allocation the parent is
  // *consumed*, and the other ready nodes whose delta was computed
  // using that parent recompute it without it (Algorithm 1, line 11).
  // Without this rule every descendant of a narrow task piles onto the
  // same processor set and the schedule serializes.

  /// Smallest non-negative allocation difference to an unconsumed
  /// parent (stretch distance); +inf when no parent is as large.
  double delta_plus(TaskId t, int np) const {
    double dp = kInf;
    for (TaskId pred : g_.predecessors(t)) {
      if (consumed_[static_cast<std::size_t>(pred)]) continue;
      const double d = np_mapped(pred) - np;
      if (d >= 0) dp = std::min(dp, d);
    }
    return dp;
  }

  /// Largest negative allocation difference to an unconsumed parent
  /// (pack distance, closest from below); -inf when no parent is
  /// smaller.
  double delta_minus(TaskId t, int np) const {
    double dm = -kInf;
    for (TaskId pred : g_.predecessors(t)) {
      if (consumed_[static_cast<std::size_t>(pred)]) continue;
      const double d = np_mapped(pred) - np;
      if (d < 0) dm = std::max(dm, d);
    }
    return dm;
  }

  /// The unconsumed parent whose mapped allocation differs from `np`
  /// by exactly `diff` (first in predecessor order; deterministic).
  TaskId parent_with_diff(TaskId t, int np, double diff) const {
    for (TaskId pred : g_.predecessors(t)) {
      if (consumed_[static_cast<std::size_t>(pred)]) continue;
      if (np_mapped(pred) - np == diff) return pred;
    }
    return kInvalidTask;
  }

  Candidate delta_candidate(TaskId t) const {
    const int np = np_alloc(t);
    const double dmax = opt_.maxdelta * np;
    const double dmin = opt_.mindelta * np;
    const double dp = delta_plus(t, np);
    const double dm = delta_minus(t, np);
    const bool stretch_ok = std::isfinite(dp) && dp <= dmax + kEps;
    const bool pack_ok = std::isfinite(dm) && dm >= dmin - kEps;

    double chosen;
    if (stretch_ok && pack_ok) {
      chosen = (dp <= -dm) ? dp : dm;  // least modification, ties: stretch
    } else if (stretch_ok) {
      chosen = dp;
    } else if (pack_ok) {
      chosen = dm;
    } else {
      return Candidate{};  // keep the original allocation
    }
    const TaskId pred = parent_with_diff(t, np, chosen);
    RATS_REQUIRE(pred != kInvalidTask, "delta parent vanished");
    Candidate c = evaluate(t, sched_->of(pred).procs);
    c.inherited_from = pred;
    return c;
  }

  // ---- time-cost strategy ----------------------------------------------

  Candidate timecost_stretch(TaskId t) const {
    const int np = np_alloc(t);
    const double work_now = model_.work(g_.task(t), np);
    TaskId best_pred = kInvalidTask;
    double best_rho = 0;
    for (TaskId pred : g_.predecessors(t)) {
      const int np_pred = np_mapped(pred);
      if (np_pred <= np) continue;
      const double rho = work_now / model_.work(g_.task(t), np_pred);
      if (best_pred == kInvalidTask || rho > best_rho) {
        best_pred = pred;
        best_rho = rho;
      }
    }
    if (best_pred == kInvalidTask || best_rho + kEps < opt_.minrho)
      return Candidate{};
    return evaluate(t, sched_->of(best_pred).procs);
  }

  Candidate timecost_pack(TaskId t, Seconds reference_finish) const {
    const int np = np_alloc(t);
    Candidate best;
    for (TaskId pred : g_.predecessors(t)) {
      if (np_mapped(pred) >= np) continue;
      Candidate c = evaluate(t, sched_->of(pred).procs);
      // Packing must not delay the task (paper Section III-B).
      if (c.finish > reference_finish + kEps) continue;
      if (!best.valid() || c.finish + kEps < best.finish) best = std::move(c);
    }
    return best;
  }

  // ---- ready-list ordering ----------------------------------------------

  /// delta(t) = min(delta+, -delta-): size of the smallest allocation
  /// modification that would let t reuse a parent's processors.
  double delta_key(TaskId t) const {
    const int np = np_alloc(t);
    const double dp = delta_plus(t, np);
    const double dm = delta_minus(t, np);
    return std::min(dp, -dm);
  }

  /// gain(t) = max execution-time gain from adopting a parent's
  /// (larger) allocation; 0 when no parent helps.
  double gain_key(TaskId t) const {
    const int np = np_alloc(t);
    const Seconds t_now = model_.execution_time(g_.task(t), np);
    double gain = 0;
    for (TaskId pred : g_.predecessors(t))
      gain = std::max(
          gain, t_now - model_.execution_time(g_.task(t), np_mapped(pred)));
    return gain;
  }

  void sort_ready(std::vector<TaskId>& ready) const {
    std::sort(ready.begin(), ready.end(), [&](TaskId a, TaskId b) {
      const double bla = bl_[static_cast<std::size_t>(a)];
      const double blb = bl_[static_cast<std::size_t>(b)];
      if (bla != blb) return bla > blb;  // primary: decreasing bottom level
      if (opt_.secondary_sort && opt_.mode == MappingMode::Delta) {
        const double da = delta_key(a);
        const double db = delta_key(b);
        if (da != db) return da < db;  // least modification first
      }
      if (opt_.secondary_sort && opt_.mode == MappingMode::TimeCost) {
        const double ga = gain_key(a);
        const double gb = gain_key(b);
        if (ga != gb) return ga > gb;  // highest gain first
      }
      return a < b;  // stable, deterministic
    });
  }

  // ---- driving ----------------------------------------------------------

  void map_one(TaskId t) {
    Candidate chosen;
    switch (opt_.mode) {
      case MappingMode::Baseline:
        chosen = baseline_candidate(t);
        break;
      case MappingMode::Delta: {
        chosen = delta_candidate(t);
        if (!chosen.valid()) chosen = baseline_candidate(t);
        break;
      }
      case MappingMode::TimeCost: {
        Candidate base = baseline_candidate(t);
        Candidate stretch = timecost_stretch(t);
        Candidate pack =
            opt_.packing ? timecost_pack(t, base.finish) : Candidate{};
        chosen = std::move(base);
        // Prefer the earliest finish; redistribution-free options win
        // ties (stretch first, then pack).
        if (stretch.valid() && stretch.finish <= chosen.finish + kEps)
          chosen = std::move(stretch);
        if (pack.valid() && pack.finish + kEps < chosen.finish)
          chosen = std::move(pack);
        break;
      }
    }
    RATS_REQUIRE(chosen.valid(), "no placement found");
    if (chosen.inherited_from != kInvalidTask)
      consumed_[static_cast<std::size_t>(chosen.inherited_from)] = 1;
    TaskPlacement& p = sched_->of(t);
    p.procs = std::move(chosen.procs);
    p.est_start = chosen.start;
    p.est_finish = chosen.finish;
    p.seq = seq_++;
    for (NodeId node : p.procs)
      proc_ready_[static_cast<std::size_t>(node)] = chosen.finish;
  }

  const TaskGraph& g_;
  const Cluster& cluster_;
  const Allocation& alloc_;
  const MappingOptions& opt_;
  AmdahlModel model_;
  mutable RedistPlanner planner_;  ///< plans each candidate's redistributions
  std::vector<Seconds> proc_ready_;
  std::vector<char> consumed_;  ///< parents whose set was inherited
  std::vector<double> bl_;
  Schedule* sched_ = nullptr;
  std::int64_t seq_ = 0;
};

}  // namespace

Schedule map_tasks(const TaskGraph& graph, const Cluster& cluster,
                   const Allocation& allocation,
                   const MappingOptions& options) {
  RATS_REQUIRE(options.mindelta <= 0.0 && options.mindelta >= -1.0,
               "mindelta must lie in [-1, 0]");
  RATS_REQUIRE(options.maxdelta >= 0.0, "maxdelta must be non-negative");
  RATS_REQUIRE(options.minrho > 0.0 && options.minrho <= 1.0,
               "minrho must lie in (0, 1]");
  return Mapper(graph, cluster, allocation, options).run();
}

}  // namespace rats
