// Fluid (flow-level) network simulation on a Cluster.
//
// This is the network half of our SimGrid replacement.  Flows are
// fluid: at any instant every in-flight flow transfers at the Max-Min
// fair rate computed over the cluster's links.  A flow traverses a
// latency phase (the sum of its route's link latencies) before its
// payload starts moving, reproducing SimGrid's  T = latency + size/rate
// behaviour while still reacting to flows that come and go.
//
// The class is driven by a discrete-event engine: the owner calls
// `advance_to(t)` to move virtual time forward, adds/queries flows, and
// uses `next_event_time()` to know when the network state next changes
// on its own (a flow finishing its latency phase or its payload).
//
// The engine is incremental (SimGrid's "lazy update" style):
//  * per-flow payload is tracked lazily — `remaining` is only brought
//    up to date when the flow's rate changes or it completes, so events
//    that do not affect a flow never touch it;
//  * each in-flight flow keeps exactly one entry in an indexed event
//    heap — its latency-phase exit, then its predicted completion.  A
//    rate change re-keys the flow's entry in place (O(log #active)),
//    so the heap never accumulates stale predictions and
//    `next_event_time()` is a const O(1) peek.  Entries tie-break on a
//    global sequence number assigned at prediction time, reproducing
//    the insertion-order pop of a lazy-invalidation queue bit for bit;
//  * released flows are partitioned into *sharing components* — the
//    connected components of the flow/link sharing graph (two flows are
//    adjacent when their routes share a link).  An arrival merges the
//    components of every link it touches and marks the result dirty; a
//    departure marks its component dirty (and possibly-split, since
//    removals are the only edits that can disconnect a component).
//    `ensure_rates()` re-solves only dirty components: a
//    possibly-split component is first re-partitioned by a link-stamped
//    walk of the sharing graph (each link's member list is scanned once
//    — O(component incidences)), then every true component gets one
//    Max-Min solve over non-owning route views into the flows'
//    immutable routes.  Rates, predictions and heap entries of
//    untouched components are left completely alone, so a contended
//    event costs O(component * log) — proportional to what changed,
//    not to what exists.  Max-Min rates decompose exactly over sharing
//    components, so the rates match a full solve bit for bit;
//  * each component's solve goes through a *solver-strategy dispatch*
//    (see net/maxmin.hpp).  Every component keeps the saturation trace
//    of its last solve (`MaxMinWarmState`) plus the arrivals and
//    departures recorded since; when the trace is live the component
//    is re-solved *warm* — only the saturation cascade the changed
//    flows can reach is recomputed, O(cascade) instead of
//    O(component).  Cold solves (first solve, post-split, declined
//    warm deltas) go to the adjacency-sharing lazy-heap solver, which
//    walks the live per-link membership lists and re-records the
//    trace.  A merge turns the absorbed component's members into pending
//    arrivals of the survivor, so warm solving survives the common
//    merge-on-arrival; a split invalidates the union's trace and
//    cold-solves the parts (priming their own traces).
//    Single-flow components short-circuit the solver entirely:
//    rate = min(cap, min link capacity);
//  * completed flows are reported through `drain_completed()` in
//    O(#finished), so a driver never rescans its in-flight set.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "net/maxmin.hpp"
#include "platform/cluster.hpp"
#include "trace/trace.hpp"

namespace rats {

using FlowId = std::int32_t;

/// Per-flow metadata of the fluid simulation.  The hot per-flow state
/// the rate-application kernels iterate — current rate, payload left,
/// settle timestamp, route links — lives in flat parallel arrays
/// inside FluidNetwork (indexed by flow id) so solver flushes and
/// settle sweeps walk dense memory instead of hopping between
/// per-flow heap blocks; see flow_rate()/flow_remaining()/flow_route().
struct FlowState {
  NodeId src{};
  NodeId dst{};
  Bytes total_bytes{};
  Seconds start{};       ///< time the flow was opened
  Seconds release{};     ///< start + route latency: payload begins here
  Seconds finish{};      ///< completion time (valid once done)
  bool released = false; ///< past the latency phase, competing for rate
  bool done = false;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

/// Non-owning view of one flow's route inside the flat route arena.
struct RouteView {
  const LinkId* data;
  std::int32_t count;
  const LinkId* begin() const { return data; }
  const LinkId* end() const { return data + count; }
  std::size_t size() const { return static_cast<std::size_t>(count); }
  LinkId operator[](std::size_t i) const { return data[i]; }
};

/// Fluid network simulation over a cluster's links.
class FluidNetwork {
 public:
  explicit FluidNetwork(const Cluster& cluster);

  /// Opens a flow of `bytes` from `src` to `dst` at the current time.
  /// Loopback (src == dst) and empty flows complete immediately (and
  /// are still reported by the next `drain_completed()`).
  FlowId open_flow(NodeId src, NodeId dst, Bytes bytes);

  /// Moves virtual time forward, draining payload at current rates and
  /// completing flows on the way.  `t` must be >= now().
  void advance_to(Seconds t);

  /// Earliest future instant at which a flow completes or leaves its
  /// latency phase; nullopt when no flow is in flight.  Const: the lazy
  /// rate recomputation is flushed by `advance_to`/`ensure_rates`
  /// before control returns to the caller, and a debug assert checks
  /// no component is still dirty here.
  std::optional<Seconds> next_event_time() const;

  /// Applies pending arrivals/departures to the rate assignment,
  /// re-solving only the dirty sharing components.  Called
  /// automatically by `advance_to`; public so diagnostics/tests can
  /// flush explicitly.
  void ensure_rates();

  /// Flows that finished since the previous call, in completion order
  /// (instantly-done flows appear after the open that created them).
  /// Returns a reference to an internal buffer invalidated by the next
  /// call; costs O(#finished since last drain).
  const std::vector<FlowId>& drain_completed();

  Seconds now() const { return now_; }
  bool flow_done(FlowId id) const { return flow(id).done; }
  Seconds flow_finish_time(FlowId id) const;
  const FlowState& flow(FlowId id) const;
  /// Current Max-Min rate (0 while latent/done).
  Rate flow_rate(FlowId id) const {
    flow(id);  // range check
    return flow_rate_[static_cast<std::size_t>(id)];
  }
  /// Payload bytes left as of the flow's last settle.
  Bytes flow_remaining(FlowId id) const {
    flow(id);  // range check
    return flow_remaining_[static_cast<std::size_t>(id)];
  }
  /// Ordered link ids the flow traverses (empty for loopback).
  RouteView flow_route(FlowId id) const {
    flow(id);  // range check
    const auto b = route_off_[static_cast<std::size_t>(id)];
    const auto e = route_off_[static_cast<std::size_t>(id) + 1];
    return RouteView{route_links_.data() + b, e - b};
  }
  std::size_t num_flows() const { return flows_.size(); }
  std::size_t active_flows() const { return active_ids_.size(); }

  /// Sum over all completed and in-flight flows of bytes injected.
  Bytes total_bytes_opened() const { return total_bytes_; }

  /// Updates a link's capacity mid-simulation (background traffic, a
  /// degraded switch, a failed NIC).  Marks the sharing component whose
  /// flows cross the link dirty and drops its warm state — a capacity
  /// change is outside the warm re-solve's delta vocabulary — then
  /// flushes, so rates after the call are bitwise identical to a
  /// from-scratch Max-Min solve of the same released population.
  void set_link_capacity(LinkId link, Rate capacity);

  /// Current capacity of `link` (the cluster's bandwidth unless
  /// changed by set_link_capacity).
  Rate link_capacity(LinkId link) const;

  /// Aborts an in-flight flow: it is retired immediately — its link
  /// shares are released and survivors re-solved — but it never
  /// reports completion (it will not appear in drain_completed()).
  /// flow_finish_time() of a cancelled flow is the cancel instant.
  /// No-op when the flow already completed.
  void cancel_flow(FlowId id);

  /// Test hook: drops every live component's warm state and re-solves
  /// the whole population cold — the oracle side of the capacity-change
  /// differential tests (targeted invalidation must match this bitwise).
  void invalidate_all_rates();

  /// Opt-in structured tracing: when set, every component solve (with
  /// the strategy the dispatch picked) and every rate assignment is
  /// recorded.  Pass nullptr to disable (the default); the sink must
  /// outlive the network.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Opt-in invariant validation (the `rats fuzz` network oracle).
  /// When on, every rate flush is followed by two checks over the
  /// released population: Max-Min conservation (no link's member rates
  /// sum past its capacity, no flow exceeds its cap) and warm ≡ cold
  /// equivalence (a from-scratch cold re-solve of every component must
  /// reproduce the incrementally-maintained rates bit for bit).  Throws
  /// rats::Error on the first violation.  Off by default: the hot path
  /// pays one branch per flush, and results are unchanged because the
  /// cold re-solve is the rate the invariant already requires.
  void set_validation(bool on) { validate_ = on; }

  // ---- sharing-component observers (tests / diagnostics) -------------

  /// Component id of a released, not-yet-done flow; -1 otherwise.  Ids
  /// are stable while the partition is clean; a re-solve may renumber
  /// the components it splits.
  std::int32_t flow_component(FlowId id) const;
  /// Number of live sharing components.  After a flush
  /// (`advance_to`/`ensure_rates`) the partition is exact for
  /// components up to the eager-split size (64 members); a larger
  /// component that a departure disconnected may stay merged — a
  /// correct over-approximation, rates are unaffected — until its
  /// amortized split walk runs (at most 16 departure-solves later).
  std::size_t num_components() const { return live_components_; }

 private:
  /// One sharing component of the released-flow/link graph.
  struct Component {
    std::vector<FlowId> members;
    bool dirty = false;        ///< membership changed since last solve
    bool maybe_split = false;  ///< a departure may have disconnected it
    bool live = false;
    std::uint32_t solves_since_walk = 0;  ///< amortizes split detection
    /// Saturation trace of the last solve plus the membership delta
    /// accumulated since — the warm re-solve's inputs.  `pending_add`
    /// and `pending_remove` are only tracked while `warm.valid`.
    MaxMinWarmState warm;
    std::vector<FlowId> pending_add;
    std::vector<FlowId> pending_remove;
    /// Drops the trace and the pending delta together (the invariant:
    /// pending lists are meaningless without a valid trace).
    void reset_warm() {
      warm.invalidate();
      pending_add.clear();
      pending_remove.clear();
    }
    /// Keeps the (freshly re-recorded) trace, drops the consumed delta.
    void clear_pending() {
      pending_add.clear();
      pending_remove.clear();
    }
  };

  /// Indexed binary min-heap over (time, seq) with one entry per flow:
  /// the latency-phase exit while latent, the predicted completion once
  /// released.  `seq` reproduces the push order of a lazy-invalidation
  /// event queue (a fresh, larger seq per prediction), keeping
  /// simultaneous events in the exact order the previous engine
  /// processed them.
  ///
  /// Re-keys are *lazy for completions that moved later*: the common
  /// rate change (an arrival slows everyone down, pushing predictions
  /// out) only records the flow's true (time, seq) in a side array and
  /// leaves the heap entry where it is.  Since the stored key is then a
  /// lower bound on the true key, heap order stays valid; a stale entry
  /// is re-keyed (one sift) only when it surfaces at the top —
  /// `fix_top()` restores the "top entry is fresh" invariant after
  /// every mutation, so `next_time()` remains an exact O(1) const
  /// peek.  A flow re-keyed k times between top visits pays one sift
  /// instead of k.  Completions that moved *earlier* sift up
  /// immediately (a lower-bound violation cannot be deferred).  The
  /// effective pop order — by true (time, seq) — is bit-identical to
  /// the eager scheme's.
  class EventHeap {
   public:
    bool empty() const { return entries_.empty(); }
    Seconds next_time() const { return entries_.front().time; }
    FlowId pop();
    /// Inserts or re-keys `f`'s entry; later-moving re-keys are
    /// deferred (see class comment).
    void upsert(FlowId f, Seconds time, std::uint64_t seq);
    /// Drops `f`'s entry if present (a flow rated down to zero has no
    /// completion to predict).
    void remove(FlowId f);
    void grow(std::size_t num_flows) {
      pos_.resize(num_flows, -1);
      true_time_.resize(num_flows, 0);
      true_seq_.resize(num_flows, 0);
    }

   private:
    struct Entry {
      Seconds time;
      std::uint64_t seq;
      FlowId flow;
    };
    bool before(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
    void place(std::size_t i, const Entry& e);
    void sift_up(std::size_t i, Entry e);
    void sift_down(std::size_t i, Entry e);
    /// Re-keys deferred entries that reached the root until the top
    /// holds its true key (or the heap is empty).
    void fix_top();

    std::vector<Entry> entries_;
    std::vector<std::int32_t> pos_;  ///< flow id -> index in entries_, -1
    // True key of each flow's entry; an entry whose stored seq differs
    // is stale (its stored key is an earlier lower bound).
    std::vector<Seconds> true_time_;
    std::vector<std::uint64_t> true_seq_;
  };

  /// Settles `remaining` up to now() at the current rate.
  void settle(FlowId id);
  /// Assigns a (new) rate and queues the completion-prediction re-key.
  /// Only called while `ensure_rates()` flushes dirty components; the
  /// queued re-keys are applied in one batch after all component
  /// solves (`apply_rekeys`), so a solve touches the event heap zero
  /// times instead of once per changed rate.
  void set_rate(FlowId id, Rate r);
  /// Applies the re-keys queued by `set_rate` since the last batch, in
  /// call order (preserving the eager scheme's seq assignment).
  void apply_rekeys();
  /// Latency-phase exit: the flow starts competing for bandwidth.
  void activate(FlowId id, FlowState& f);
  /// Retires a flow (done, off the active list, link shares released,
  /// component updated) without reporting completion.
  void retire(FlowId id, FlowState& f);
  /// Payload exhausted: retire + queue for drain.
  void complete(FlowId id, FlowState& f);
  /// The set_validation(true) checks; runs after a flush that solved
  /// at least one component.
  void run_validation_checks();

  // Partition maintenance.
  std::int32_t alloc_component();
  void free_component(std::int32_t c);
  void mark_dirty(std::int32_t c);
  void add_member(std::int32_t c, FlowId id);
  void remove_member(std::int32_t c, FlowId id);
  /// Moves the smaller component's members into the larger; returns the
  /// surviving id.
  std::int32_t merge_components(std::int32_t a, std::int32_t b);
  /// Re-solves a dirty component, re-partitioning it first when a
  /// departure may have disconnected it.
  void repartition_and_solve(std::int32_t c);
  /// Solver-strategy dispatch for one true component: singleton
  /// short-circuit, warm re-solve over the pending delta when the
  /// trace allows it, else a traced cold solve.
  void solve_component(std::int32_t c);
  /// Traced cold solve of a component through the adjacency-sharing
  /// solver.  Re-primes `warm`.
  void solve_cold(std::int32_t c);

  const Cluster* cluster_;
  std::vector<Rate> capacity_;
  std::vector<FlowState> flows_;
  // Hot per-flow state as structure-of-arrays, indexed by flow id (the
  // solver-flush and settle kernels stream these).
  std::vector<Rate> flow_rate_;        ///< current Max-Min rate
  std::vector<Bytes> flow_remaining_;  ///< payload left at last settle
  std::vector<Seconds> flow_settled_;  ///< instant of the last settle
  // Immutable routes in one flat arena: flow id -> [route_off_[id],
  // route_off_[id+1]) into route_links_.  `route_pos_` (same layout) is
  // this flow's slot in link_members_[link] while released, so a
  // departure swap-removes itself in O(route length).
  std::vector<std::int32_t> route_off_;
  std::vector<LinkId> route_links_;
  std::vector<std::int32_t> route_pos_;
  std::vector<FlowId> active_ids_;       ///< not-yet-done flows
  std::vector<std::int32_t> active_pos_; ///< flow id -> index in active_ids_
  EventHeap events_;
  std::uint64_t next_seq_ = 0;  ///< prediction tie-break counter
  /// Re-keys queued during a rate flush (flow, prediction, seq); a
  /// non-positive rate queues a removal instead (time is ignored).
  struct PendingRekey {
    FlowId flow;
    bool remove;
    Seconds time;
    std::uint64_t seq;
  };
  std::vector<PendingRekey> rekey_buffer_;

  // Sharing-component partition of released flows.
  std::vector<std::vector<FlowId>> link_members_;  ///< released flows per link
  std::vector<Component> components_;
  std::vector<std::int32_t> free_components_;
  std::vector<std::int32_t> dirty_components_;
  std::vector<std::int32_t> component_of_;  ///< flow id -> component (-1)
  std::vector<std::int32_t> member_pos_;    ///< flow id -> index in members
  std::size_t live_components_ = 0;

  // Re-partition / solve scratch (persistent, reused across solves).
  std::vector<std::int32_t> dirty_scratch_;
  std::vector<FlowId> group_;          ///< members of one true component
  std::vector<FlowId> split_scratch_;  ///< membership snapshot for walks
  std::vector<FlowId> bfs_queue_;
  std::vector<std::uint32_t> link_stamp_;   ///< per link id
  std::uint32_t visit_epoch_ = 0;
  std::vector<std::uint32_t> visit_stamp_;  ///< per flow id
  std::vector<FlowDemandView> demand_views_;
  std::vector<std::int32_t> local_index_;  ///< flow id -> index in group_
  std::vector<Rate> group_rates_;

  // Drain + solver scratch.
  std::vector<FlowId> completed_;
  std::vector<FlowId> drained_;
  MaxMinSolver solver_;
  std::vector<FlowArrival> arrivals_scratch_;
  std::vector<std::pair<std::int32_t, Rate>> changed_;

  Seconds now_ = 0;
  Bytes total_bytes_ = 0;
  TraceSink* trace_ = nullptr;
  bool validate_ = false;    ///< set_validation: check after every flush
  bool validating_ = false;  ///< re-entrancy guard (the check re-solves)
  std::vector<std::pair<FlowId, Rate>> validation_snapshot_;
};

}  // namespace rats
