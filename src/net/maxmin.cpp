#include "net/maxmin.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "net/solver_stats.hpp"

namespace rats {

namespace {
// A heap entry is stale when the link's current fair share has grown
// past the keyed value (shares are non-decreasing as flows are fixed,
// so stale entries are always under-keyed, never over-keyed).  Stale
// entries must be re-keyed, never fired: zero slack makes the fired
// sequence a pure function of solver state — "(smallest current
// share, smallest link id) fires next" — independent of heap-key
// history.  The warm splice engine relies on that property to replay
// recorded rounds interleaved with cone re-solves bitwise identically
// to a cold solve; any tolerance here would make firing order depend
// on when each key was last refreshed, which a spliced replay cannot
// reconstruct.
constexpr double kShareSlack = 0.0;

// Dip detection divides remaining by active on every link touch; this
// multiply filter in front of the exact divide over-admits (every true
// dip satisfies remaining < key*active*(1+slack), since the slack
// dwarfs the rounding of the product) so the division still decides —
// but most touches are filtered out for the cost of one multiply.
constexpr double kDipFilterSlack = 1e-9;

// A warm re-solve undoes the trace back to the first round whose
// binding share reaches the delta's divergence bound; the bound is
// shaved by this relative margin so rounding noise can only undo one
// round too many, never one too few.
constexpr double kDivergenceMargin = 1e-9;
}  // namespace

void MaxMinSolver::solve(const std::vector<Rate>& capacity,
                         const std::vector<FlowDemand>& flows,
                         std::vector<Rate>& rates) {
  views_.clear();
  views_.reserve(flows.size());
  for (const FlowDemand& f : flows)
    views_.push_back(FlowDemandView{
        f.links.data(), static_cast<std::int32_t>(f.links.size()), f.cap});
  rates.resize(flows.size());
  solve_impl(capacity, views_.data(), views_.size(), rates.data(), nullptr,
             nullptr, nullptr);
}

void MaxMinSolver::solve(const std::vector<Rate>& capacity,
                         const FlowDemandView* flows, std::size_t num_flows,
                         Rate* rates, MaxMinWarmState* trace,
                         const std::int32_t* stable_ids) {
  solve_impl(capacity, flows, num_flows, rates, nullptr, trace, stable_ids);
}

void MaxMinSolver::solve(const std::vector<Rate>& capacity,
                         const FlowDemandView* flows, std::size_t num_flows,
                         Rate* rates,
                         const std::vector<std::vector<std::int32_t>>& link_flows,
                         const std::vector<std::int32_t>& local_of,
                         MaxMinWarmState* trace,
                         const std::int32_t* stable_ids) {
  const ExtAdjacency ext{&link_flows, &local_of};
  solve_impl(capacity, flows, num_flows, rates, &ext, trace, stable_ids);
}

void MaxMinSolver::solve_impl(const std::vector<Rate>& capacity,
                              const FlowDemandView* flows,
                              std::size_t num_flows, Rate* rates,
                              const ExtAdjacency* ext, MaxMinWarmState* trace,
                              const std::int32_t* stable_ids) {
  const std::size_t num_links = capacity.size();
  // Per-link slots are epoch-stamped: growing them is the only O(L)
  // work, paid once; after that a solve touches only its own links.
  if (slots_.size() < num_links) slots_.resize(num_links);
  ++epoch_;

  touched_.clear();
  caps_.clear();
  heap_.clear();
  fixed_.assign(num_flows, 0);
  if (trace) trace->invalidate();
  const auto stable_id = [&](std::size_t f) {
    return stable_ids ? stable_ids[f] : static_cast<std::int32_t>(f);
  };

  // Pass 1: validate, count link incidences, fix loopback flows.
  std::size_t unfixed = 0;
  std::size_t incidences = 0;
  Rate min_cap = std::numeric_limits<Rate>::infinity();
  Rate max_touched_capacity = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    const FlowDemandView& d = flows[f];
    if (d.count == 0) {
      // Loopback: not constrained by any link.
      rates[f] = d.cap;
      fixed_[f] = 1;
      if (trace)
        trace->settles.push_back(MaxMinWarmState::Settle{
            stable_id(f), static_cast<std::int32_t>(trace->log.size()), d.cap,
            d.cap});
      continue;
    }
    rates[f] = 0.0;
    for (std::int32_t i = 0; i < d.count; ++i) {
      const std::int32_t l = d.links[static_cast<std::size_t>(i)];
      RATS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < num_links,
                   "flow references unknown link");
      LinkSlot& slot = slots_[static_cast<std::size_t>(l)];
      if (slot.epoch != epoch_) {
        const Rate cap_l = capacity[static_cast<std::size_t>(l)];
        RATS_REQUIRE(cap_l > 0, "used link must have positive capacity");
        slot.epoch = epoch_;
        slot.remaining = cap_l;
        slot.active = 0;
        slot.index = static_cast<std::int32_t>(touched_.size());
        touched_.push_back(l);
        max_touched_capacity = std::max(max_touched_capacity, cap_l);
      }
      ++slot.active;
    }
    if (std::isfinite(d.cap)) {
      caps_.emplace_back(d.cap, static_cast<std::int32_t>(f));
      min_cap = std::min(min_cap, d.cap);
    }
    ++unfixed;
    incidences += static_cast<std::size_t>(d.count);
  }
  if (trace) {
    trace->links = touched_;
    trace->act0.reserve(touched_.size());
    for (const std::int32_t l : touched_)
      trace->act0.push_back(slots_[static_cast<std::size_t>(l)].active);
    trace->max_capacity = max_touched_capacity;
  }
  if (unfixed == 0) {
    if (trace) {
      trace->remaining.assign(touched_.size(), 0);
      trace->valid = true;
    }
    return;
  }

  // Fair shares never exceed the largest touched capacity, so when even
  // the smallest cap is above it no cap can ever be the tightest
  // constraint (cap <= share is unreachable) — drop the cap machinery,
  // including its O(F log F) sort.  Common case: the TCP-window bound
  // W/RTT sits far above the per-link bandwidth on low-latency
  // clusters.
  if (min_cap > max_touched_capacity) caps_.clear();

  // Pass 2: CSR link->flow adjacency over the touched links only —
  // skipped entirely when the caller shares its own adjacency table.
  // Offsets are advanced while filling and restored by the shift below,
  // avoiding a cursor array.
  if (!ext) {
    link_off_.assign(touched_.size() + 1, 0);
    for (std::size_t f = 0; f < num_flows; ++f) {
      const FlowDemandView& d = flows[f];
      for (std::int32_t i = 0; i < d.count; ++i)
        ++link_off_[static_cast<std::size_t>(
                        slots_[static_cast<std::size_t>(
                                   d.links[static_cast<std::size_t>(i)])]
                            .index) +
                    1];
    }
    for (std::size_t k = 0; k < touched_.size(); ++k)
      link_off_[k + 1] += link_off_[k];
    link_flows_.resize(incidences);
    for (std::size_t f = 0; f < num_flows; ++f) {
      const FlowDemandView& d = flows[f];
      for (std::int32_t i = 0; i < d.count; ++i) {
        const auto k = static_cast<std::size_t>(
            slots_[static_cast<std::size_t>(d.links[static_cast<std::size_t>(i)])]
                .index);
        link_flows_[static_cast<std::size_t>(link_off_[k]++)] =
            static_cast<std::int32_t>(f);
      }
    }
    for (std::size_t k = touched_.size(); k > 0; --k)
      link_off_[k] = link_off_[k - 1];
    link_off_[0] = 0;
  }

  std::sort(caps_.begin(), caps_.end());

  const auto heap_greater = std::greater<HeapEntry>();
  for (const std::int32_t l : touched_) {
    LinkSlot& slot = slots_[static_cast<std::size_t>(l)];
    slot.key = slot.remaining / slot.active;
    heap_.push_back(HeapEntry{slot.key, l, slot.index});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_greater);

  // A fixed flow releases the capacity it leaves unused on each of its
  // links and stops counting toward their fair shares.  Settling at a
  // share at-or-above a link's own can lower that link's share an ulp
  // or two below its (frozen) heap key; the cold event order among
  // near-ties depends on those keys, so traced solves record the dips
  // for warm replays (see MaxMinWarmState::Dip).
  const auto settle_flow = [&](std::int32_t f, Rate r) {
    rates[static_cast<std::size_t>(f)] = r;
    fixed_[static_cast<std::size_t>(f)] = 1;
    --unfixed;
    const FlowDemandView& d = flows[static_cast<std::size_t>(f)];
    if (trace)
      trace->settles.push_back(MaxMinWarmState::Settle{
          stable_id(static_cast<std::size_t>(f)),
          static_cast<std::int32_t>(trace->log.size()), r, d.cap});
    for (std::int32_t i = 0; i < d.count; ++i) {
      LinkSlot& slot =
          slots_[static_cast<std::size_t>(d.links[static_cast<std::size_t>(i)])];
      if (trace)
        trace->log.push_back(
            MaxMinWarmState::LogEntry{slot.index, slot.remaining});
      slot.remaining = std::max(0.0, slot.remaining - r);
      --slot.active;
      if (trace && slot.active > 0 &&
          slot.remaining < slot.key * slot.active * (1 + kDipFilterSlack) &&
          slot.remaining / slot.active < slot.key)
        trace->dips.push_back(MaxMinWarmState::Dip{
            static_cast<std::int32_t>(trace->rounds.size()) - 1, slot.index,
            slot.key});
    }
  };

  // Progressive filling: each round the globally tightest constraint —
  // a link fair share or a flow cap — fixes the flows it binds.
  std::size_t cap_ptr = 0;
  while (unfixed > 0) {
    // Tightest link fair share; lazily discard/re-key stale entries.
    Rate link_share = std::numeric_limits<Rate>::infinity();
    Rate link_key = std::numeric_limits<Rate>::infinity();
    std::int32_t link = -1;
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      const LinkSlot& slot = slots_[static_cast<std::size_t>(top.link)];
      if (slot.active == 0) {
        std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
        heap_.pop_back();
        continue;
      }
      const Rate cur = slot.remaining / slot.active;
      if (cur > top.share * (1 + kShareSlack)) {
        std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
        heap_.back().share = cur;
        slots_[static_cast<std::size_t>(top.link)].key = cur;
        std::push_heap(heap_.begin(), heap_.end(), heap_greater);
        continue;
      }
      link_share = cur;
      link_key = top.share;
      link = top.link;
      break;
    }

    // Flows capped at or below the share saturate at their own cap
    // first; they consume less than a fair share, so fixing them can
    // only raise the share of the remaining flows.
    while (cap_ptr < caps_.size() &&
           fixed_[static_cast<std::size_t>(caps_[cap_ptr].second)])
      ++cap_ptr;
    if (cap_ptr < caps_.size() && caps_[cap_ptr].first <= link_share) {
      if (trace)
        trace->rounds.push_back(MaxMinWarmState::Round{
            static_cast<std::int32_t>(trace->settles.size()),
            caps_[cap_ptr].first, -1, caps_[cap_ptr].first});
      settle_flow(caps_[cap_ptr].second, caps_[cap_ptr].first);
      ++cap_ptr;
      continue;
    }

    RATS_REQUIRE(link >= 0 && std::isfinite(link_share),
                 "no constraining link for active flows");
    // Saturate the bottleneck link: every unfixed flow crossing it gets
    // the fair share.  Links that tie (same share up to rounding) carry
    // on unchanged and pop next — fixing a shared flow at `share`
    // leaves a tied link's share exactly invariant.
    if (trace)
      trace->rounds.push_back(MaxMinWarmState::Round{
          static_cast<std::int32_t>(trace->settles.size()), link_share,
          slots_[static_cast<std::size_t>(link)].index, link_key});
    std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
    heap_.pop_back();
    if (ext) {
      for (const std::int32_t id :
           (*ext->link_flows)[static_cast<std::size_t>(link)]) {
        const std::int32_t f = (*ext->local_of)[static_cast<std::size_t>(id)];
        if (fixed_[static_cast<std::size_t>(f)]) continue;
        settle_flow(f, link_share);
      }
    } else {
      const auto k = static_cast<std::size_t>(
          slots_[static_cast<std::size_t>(link)].index);
      for (auto idx = static_cast<std::size_t>(link_off_[k]);
           idx < static_cast<std::size_t>(link_off_[k + 1]); ++idx) {
        const std::int32_t f = link_flows_[idx];
        if (fixed_[static_cast<std::size_t>(f)]) continue;
        settle_flow(f, link_share);
      }
    }
  }
  if (trace) {
    trace->remaining.reserve(touched_.size());
    for (const std::int32_t l : touched_)
      trace->remaining.push_back(slots_[static_cast<std::size_t>(l)].remaining);
    trace->valid = true;
  }
}

// ---- warm re-solve -----------------------------------------------------
//
// Undo the recorded trace back to the divergence round, then *splice*:
// recorded rounds whose binding link stayed outside the delta's
// dependency cone are committed verbatim (same settles, same recorded
// rates — bit-identical by construction, since every input to their
// arithmetic is unchanged), and only the cone is re-solved through a
// share heap.  The cone is tracked dynamically: it seeds with the
// departures' and arrivals' links and grows whenever a cone-fixed or
// transferred flow crosses a link whose residual/active history now
// diverges from the record.  Kept rounds and cone rounds merge by the
// cold solver's event order — (share, link id), caps first on ties —
// which is what keeps the merged round sequence bit-identical to a
// from-scratch solve of the new population.  See maxmin.hpp.

bool MaxMinSolver::solve_warm(const std::vector<Rate>& capacity,
                              MaxMinWarmState& state,
                              const FlowArrival* arrivals,
                              std::size_t num_arrivals,
                              const std::int32_t* departures,
                              std::size_t num_departures,
                              std::vector<std::pair<std::int32_t, Rate>>& changed) {
  SolverStats& stats = solver_stats();
  stats.bump(stats.warm_attempts);
  const auto decline = [&stats] {
    stats.bump(stats.warm_declined);
    return false;
  };
  if (!state.valid) return decline();
  // Loopback arrivals need no cascade but would sit outside the round
  // structure; the (rare) caller cold-solves instead.
  for (std::size_t a = 0; a < num_arrivals; ++a) {
    if (arrivals[a].count <= 0) return decline();
    for (std::int32_t i = 0; i < arrivals[a].count; ++i) {
      const std::int32_t l = arrivals[a].links[static_cast<std::size_t>(i)];
      RATS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < capacity.size(),
                   "flow references unknown link");
      RATS_REQUIRE(capacity[static_cast<std::size_t>(l)] > 0,
                   "used link must have positive capacity");
    }
  }

  const std::size_t num_known = state.links.size();
  const std::size_t num_settles = state.settles.size();
  const std::size_t num_rounds = state.rounds.size();

  // Dense mapping of the state's link table via the epoch-stamped slots.
  if (slots_.size() < capacity.size()) slots_.resize(capacity.size());
  ++epoch_;
  for (std::size_t d = 0; d < num_known; ++d) {
    LinkSlot& slot = slots_[static_cast<std::size_t>(state.links[d])];
    slot.epoch = epoch_;
    slot.index = static_cast<std::int32_t>(d);
  }

  // Locate each departure's settle.  Departed loopback flows (empty
  // link range) affect nobody: they are only compacted out of the trace.
  std::vector<std::int32_t>& dep_settles = warm_links_;  // reuse scratch
  dep_settles.clear();
  std::vector<std::int32_t> loopback_settles;  // rare; usually no alloc
  if (num_departures > 0) {
    std::size_t found = 0;
    for (std::size_t s = 0; s < num_settles && found < num_departures; ++s) {
      const MaxMinWarmState::Settle& st = state.settles[s];
      bool departs = false;
      for (std::size_t q = 0; q < num_departures; ++q)
        if (departures[q] == st.id) {
          departs = true;
          break;
        }
      if (!departs) continue;
      ++found;
      const std::int32_t end =
          s + 1 < num_settles ? state.settles[s + 1].link_off
                              : static_cast<std::int32_t>(state.log.size());
      if (st.link_off == end)
        loopback_settles.push_back(static_cast<std::int32_t>(s));
      else
        dep_settles.push_back(static_cast<std::int32_t>(s));
    }
    if (found != num_departures) {
      assert(false && "warm departure not present in trace");
      return decline();
    }
  }

  // Divergence bound from the arrivals: their links' initial shares and
  // their caps.  Arriving flows only lower the shares of their own
  // links, so every round whose binding share stays strictly below the
  // bound is bitwise unaffected by the delta.
  warm_extra_.assign(num_known, 0);
  std::size_t num_new_links = 0;
  for (std::size_t a = 0; a < num_arrivals; ++a) {
    for (std::int32_t i = 0; i < arrivals[a].count; ++i) {
      const auto l = static_cast<std::size_t>(
          arrivals[a].links[static_cast<std::size_t>(i)]);
      LinkSlot& slot = slots_[l];
      if (slot.epoch != epoch_) {
        slot.epoch = epoch_;
        slot.index = static_cast<std::int32_t>(num_known + num_new_links);
        ++num_new_links;
        warm_extra_.push_back(0);
      }
      ++warm_extra_[static_cast<std::size_t>(slot.index)];
    }
  }
  Rate s_star = std::numeric_limits<Rate>::infinity();
  for (std::size_t a = 0; a < num_arrivals; ++a) {
    s_star = std::min(s_star, arrivals[a].cap);
    for (std::int32_t i = 0; i < arrivals[a].count; ++i) {
      const auto l = static_cast<std::size_t>(
          arrivals[a].links[static_cast<std::size_t>(i)]);
      const auto d = static_cast<std::size_t>(slots_[l].index);
      const std::int32_t base =
          d < num_known ? state.act0[d] : 0;
      s_star = std::min(
          s_star, capacity[l] / (base + warm_extra_[d]));
    }
  }

  // Divergence round: the earliest of any departure's fix round and the
  // first round whose share reaches the arrival bound.
  std::size_t k = num_rounds;
  if (!dep_settles.empty()) {
    // dep_settles is in settle order; the first one decides.
    const std::int32_t s0 = dep_settles.front();
    std::size_t lo = 0, hi = num_rounds;
    while (lo + 1 < hi) {  // last round with first_settle <= s0
      const std::size_t mid = (lo + hi) / 2;
      if (state.rounds[mid].first_settle <= s0)
        lo = mid;
      else
        hi = mid;
    }
    k = lo;
  }
  if (num_arrivals > 0) {
    const Rate bound = s_star * (1 - kDivergenceMargin);
    for (std::size_t r = 0; r < k; ++r) {
      if (state.rounds[r].share >= bound) {
        k = r;
        break;
      }
    }
  }

  const std::size_t first_undone =
      k < num_rounds ? static_cast<std::size_t>(state.rounds[k].first_settle)
                     : num_settles;
  const std::size_t undone = num_settles - first_undone;

  // ---- committed: everything below mutates `state` -------------------

  // Undo + work-list build in one forward pass over the log suffix.
  // A link's pre-splice residual is the `before` of its EARLIEST undone
  // log entry, so restoring on first touch (forward) reproduces the
  // backward replay; the same entry visit re-counts the link's unfixed
  // flows and collects the suffix work list (departures excluded, their
  // link counts removed and their links seeding the cone).
  // `warm_suffix_work_` maps settle indices to work indices so the
  // recorded rounds can be re-expressed as work ranges.
  const std::size_t log_first =
      first_undone < num_settles
          ? static_cast<std::size_t>(state.settles[first_undone].link_off)
          : state.log.size();
  warm_active_.assign(num_known + num_new_links, 0);
  warm_touched_.assign(num_known + num_new_links, 0);
  warm_affected_.assign(num_known + num_new_links, 0);
  work_ids_.clear();
  work_caps_.clear();
  work_rates_.clear();
  work_off_.clear();
  work_flow_links_.clear();
  warm_suffix_work_.assign(undone + 1, 0);
  std::size_t dep_ptr = 0;
  for (std::size_t s = first_undone; s < num_settles; ++s) {
    warm_suffix_work_[s - first_undone] =
        static_cast<std::int32_t>(work_ids_.size());
    const MaxMinWarmState::Settle& st = state.settles[s];
    const auto begin = static_cast<std::size_t>(st.link_off);
    const auto end = s + 1 < num_settles
                         ? static_cast<std::size_t>(state.settles[s + 1].link_off)
                         : state.log.size();
    if (dep_ptr < dep_settles.size() &&
        dep_settles[dep_ptr] == static_cast<std::int32_t>(s)) {
      ++dep_ptr;
      for (std::size_t e = begin; e < end; ++e) {
        const auto d = static_cast<std::size_t>(state.log[e].link);
        if (!warm_touched_[d]) {
          warm_touched_[d] = 1;
          state.remaining[d] = state.log[e].before;
        }
        --state.act0[d];
        warm_affected_[d] = 1;
      }
      continue;
    }
    work_ids_.push_back(st.id);
    work_caps_.push_back(st.cap);
    work_rates_.push_back(st.rate);
    work_off_.push_back(static_cast<std::int32_t>(work_flow_links_.size()));
    for (std::size_t e = begin; e < end; ++e) {
      const auto d = static_cast<std::size_t>(state.log[e].link);
      if (!warm_touched_[d]) {
        warm_touched_[d] = 1;
        state.remaining[d] = state.log[e].before;
      }
      ++warm_active_[d];
      work_flow_links_.push_back(state.log[e].link);
    }
  }
  warm_suffix_work_[undone] = static_cast<std::int32_t>(work_ids_.size());
  assert(dep_ptr == dep_settles.size() &&
         "departure fixed before the divergence round");
  const std::size_t num_recorded_work = work_ids_.size();

  // Arrivals: grow the link table for unseen links, then count the new
  // flows in.  Their links seed the cone.
  for (std::size_t a = 0; a < num_arrivals; ++a) {
    work_ids_.push_back(arrivals[a].id);
    work_caps_.push_back(arrivals[a].cap);
    work_rates_.push_back(0);  // never kept-committed
    work_off_.push_back(static_cast<std::int32_t>(work_flow_links_.size()));
    for (std::int32_t i = 0; i < arrivals[a].count; ++i) {
      const auto l = static_cast<std::size_t>(
          arrivals[a].links[static_cast<std::size_t>(i)]);
      const auto d = static_cast<std::size_t>(slots_[l].index);
      if (d >= state.links.size()) {
        assert(d == state.links.size());
        state.links.push_back(static_cast<std::int32_t>(l));
        state.act0.push_back(0);
        state.remaining.push_back(capacity[l]);
        state.max_capacity = std::max(state.max_capacity, capacity[l]);
      }
      ++warm_active_[d];
      ++state.act0[d];
      warm_touched_[d] = 1;
      warm_affected_[d] = 1;
      work_flow_links_.push_back(static_cast<std::int32_t>(d));
    }
  }
  work_off_.push_back(static_cast<std::int32_t>(work_flow_links_.size()));

  // Kept schedule: the recorded suffix rounds as work ranges, consumed
  // in order by the merge.  Committing untouched rounds verbatim costs
  // O(1) per settle and no heap work, so even a full-trace undo beats
  // a cold solve and there is no trace-fraction decline.
  warm_kept_.clear();
  warm_kept_.reserve(num_rounds - k);
  for (std::size_t r = k; r < num_rounds; ++r) {
    const auto s_begin = static_cast<std::size_t>(state.rounds[r].first_settle);
    const std::size_t s_end =
        r + 1 < num_rounds
            ? static_cast<std::size_t>(state.rounds[r + 1].first_settle)
            : num_settles;
    warm_kept_.push_back(WarmKeptRound{
        state.rounds[r].share, state.rounds[r].key, state.rounds[r].link,
        warm_suffix_work_[s_begin - first_undone],
        warm_suffix_work_[s_end - first_undone]});
  }

  // Truncate the undone tail of the trace; the merge re-records.
  state.settles.resize(first_undone);
  state.log.resize(log_first);
  state.rounds.resize(k);
  while (!state.dips.empty() &&
         state.dips.back().round >= static_cast<std::int32_t>(k))
    state.dips.pop_back();

  const std::size_t num_work = work_ids_.size();
  std::size_t unfixed = num_work;
  std::size_t cone_fixed = 0;
  if (num_work > 0) {
    // Mini-CSR link -> work item over every suffix link, so cone
    // rounds can fix (and steal) any unfixed flow crossing their link.
    std::vector<std::int32_t>& clinks = warm_links_;  // dep_settles done
    clinks.clear();
    const std::size_t total = num_known + num_new_links;
    if (csr_slot_.size() < total) csr_slot_.resize(total);
    for (std::size_t d = 0; d < total; ++d)
      if (warm_touched_[d]) {
        csr_slot_[d] = static_cast<std::int32_t>(clinks.size());
        clinks.push_back(static_cast<std::int32_t>(d));
      }
    work_csr_off_.assign(clinks.size() + 1, 0);
    for (const std::int32_t d : work_flow_links_)
      ++work_csr_off_[static_cast<std::size_t>(
                          csr_slot_[static_cast<std::size_t>(d)]) +
                      1];
    for (std::size_t c = 0; c < clinks.size(); ++c)
      work_csr_off_[c + 1] += work_csr_off_[c];
    work_csr_.resize(work_flow_links_.size());
    for (std::size_t w = 0; w < num_work; ++w)
      for (auto i = static_cast<std::size_t>(work_off_[w]);
           i < static_cast<std::size_t>(work_off_[w + 1]); ++i) {
        const auto c = static_cast<std::size_t>(
            csr_slot_[static_cast<std::size_t>(work_flow_links_[i])]);
        work_csr_[static_cast<std::size_t>(work_csr_off_[c]++)] =
            static_cast<std::int32_t>(w);
      }
    for (std::size_t c = clinks.size(); c > 0; --c)
      work_csr_off_[c] = work_csr_off_[c - 1];
    work_csr_off_[0] = 0;

    fixed_.assign(num_work, 0);

    // Mirror the cold solver's heap keys.  At the splice a link's cold
    // key is its current share unless a recorded dip from the kept
    // prefix froze it higher (keys never decrease; a dip is the only
    // way a key exceeds the current share).  From here on the mirror
    // is maintained exactly: churn raises it to the current share, and
    // a round with ordering key K touching a link whose mirror is
    // below K implies the cold heap churned that link to its
    // pre-subtraction share before K fired.
    if (warm_key_.size() < total) {
      warm_key_.resize(total);
      warm_last_touch_.resize(total);
    }
    for (const std::int32_t cl : clinks) {
      const auto d = static_cast<std::size_t>(cl);
      warm_key_[d] =
          warm_active_[d] > 0 ? state.remaining[d] / warm_active_[d] : 0.0;
      warm_last_touch_[d] = -1;
    }
    for (const MaxMinWarmState::Dip& dip : state.dips) {
      const auto d = static_cast<std::size_t>(dip.link);
      if (d < total && warm_touched_[d] && dip.key > warm_key_[d])
        warm_key_[d] = dip.key;
    }

    // Cone cap min-heap: (cap, work index) pops in the cold solve's
    // sorted-cap order; a heap (not a sorted array) because transfers
    // insert caps mid-replay.  Caps above `max_capacity` can never be
    // the tightest constraint (same reachability cut as the cold
    // solve's min_cap check) and are not pushed.
    warm_cap_heap_.clear();
    const auto cap_greater = std::greater<std::pair<Rate, std::int32_t>>();
    const auto push_cap = [&](std::size_t w) {
      const Rate c = work_caps_[w];
      if (std::isfinite(c) && c <= state.max_capacity) {
        warm_cap_heap_.emplace_back(c, static_cast<std::int32_t>(w));
        std::push_heap(warm_cap_heap_.begin(), warm_cap_heap_.end(),
                       cap_greater);
      }
    };
    for (std::size_t w = num_recorded_work; w < num_work; ++w) push_cap(w);

    // Share heap over the cone links only; kept rounds supply the
    // clean links' binding events in recorded order.  Pop order
    // matches the cold solve's lazy heap: both yield the minimum
    // current share, ties by link id.
    heap_.clear();
    const auto heap_greater = std::greater<HeapEntry>();
    for (const std::int32_t d : clinks)
      if (warm_affected_[static_cast<std::size_t>(d)] &&
          warm_active_[static_cast<std::size_t>(d)] > 0)
        heap_.push_back(HeapEntry{warm_key_[static_cast<std::size_t>(d)],
                                  state.links[static_cast<std::size_t>(d)],
                                  d});
    std::make_heap(heap_.begin(), heap_.end(), heap_greater);

    // A link enters the cone the moment its arithmetic diverges from
    // the record: a cone-fixed flow crossing it, or a transferred
    // (still unfixed where the record had it fixed) flow crossing it.
    const auto mark_affected = [&](std::size_t d) {
      if (warm_affected_[d]) return;
      warm_affected_[d] = 1;
      if (warm_active_[d] > 0) {
        const Rate cur = state.remaining[d] / warm_active_[d];
        if (warm_key_[d] < cur) warm_key_[d] = cur;
        heap_.push_back(HeapEntry{warm_key_[d], state.links[d],
                                  static_cast<std::int32_t>(d)});
        std::push_heap(heap_.begin(), heap_.end(), heap_greater);
      }
    };

    // Commit a kept settle at its recorded rate.  Every input to the
    // subtraction on a clean link is unchanged from the record, so the
    // trace it re-records is bitwise the old one; on a cone link the
    // live residual is used (and the flow's rate is still the recorded
    // one — the merge order guarantees no cone link could have bound
    // it earlier).
    Rate round_key = 0;  // ordering key of the merge round in flight
    const auto touch_link = [&](std::size_t d, Rate r) {
      const std::int32_t rtag =
          static_cast<std::int32_t>(state.rounds.size()) - 1;
      if (warm_last_touch_[d] != rtag) {
        warm_last_touch_[d] = rtag;
        if (warm_key_[d] < round_key && warm_active_[d] > 0)
          warm_key_[d] = state.remaining[d] / warm_active_[d];
      }
      state.log.push_back(MaxMinWarmState::LogEntry{
          static_cast<std::int32_t>(d), state.remaining[d]});
      state.remaining[d] = std::max(0.0, state.remaining[d] - r);
      --warm_active_[d];
      if (warm_active_[d] > 0 &&
          state.remaining[d] <
              warm_key_[d] * warm_active_[d] * (1 + kDipFilterSlack) &&
          state.remaining[d] / warm_active_[d] < warm_key_[d])
        state.dips.push_back(MaxMinWarmState::Dip{
            rtag, static_cast<std::int32_t>(d), warm_key_[d]});
    };

    const auto settle_kept = [&](std::size_t w) {
      assert(!fixed_[w]);
      const Rate r = work_rates_[w];
      state.settles.push_back(MaxMinWarmState::Settle{
          work_ids_[w], static_cast<std::int32_t>(state.log.size()), r,
          work_caps_[w]});
      for (auto i = static_cast<std::size_t>(work_off_[w]);
           i < static_cast<std::size_t>(work_off_[w + 1]); ++i)
        touch_link(static_cast<std::size_t>(work_flow_links_[i]), r);
      fixed_[w] = 1;
      --unfixed;
    };

    // Fix a cone flow at a re-solved rate; its links join the cone.
    const auto settle_cone = [&](std::size_t w, Rate r) {
      changed.emplace_back(work_ids_[w], r);
      state.settles.push_back(MaxMinWarmState::Settle{
          work_ids_[w], static_cast<std::int32_t>(state.log.size()), r,
          work_caps_[w]});
      for (auto i = static_cast<std::size_t>(work_off_[w]);
           i < static_cast<std::size_t>(work_off_[w + 1]); ++i)
        touch_link(static_cast<std::size_t>(work_flow_links_[i]), r);
      for (auto i = static_cast<std::size_t>(work_off_[w]);
           i < static_cast<std::size_t>(work_off_[w + 1]); ++i)
        mark_affected(static_cast<std::size_t>(work_flow_links_[i]));
      fixed_[w] = 1;
      --unfixed;
      ++cone_fixed;
    };

    const Rate inf = std::numeric_limits<Rate>::infinity();
    std::size_t rp = 0;
    while (unfixed > 0) {
      // Advance the kept pointer: transfer rounds whose binding link
      // entered the cone (their settles re-solve; their flows' links
      // diverge from the record and join the cone), skip cap rounds
      // whose flow departed or was stolen.
      while (rp < warm_kept_.size()) {
        const WarmKeptRound& kr = warm_kept_[rp];
        if (kr.link >= 0 &&
            warm_affected_[static_cast<std::size_t>(kr.link)]) {
          for (auto w = static_cast<std::size_t>(kr.work_begin);
               w < static_cast<std::size_t>(kr.work_end); ++w) {
            if (fixed_[w]) continue;
            push_cap(w);
            for (auto i = static_cast<std::size_t>(work_off_[w]);
                 i < static_cast<std::size_t>(work_off_[w + 1]); ++i)
              mark_affected(static_cast<std::size_t>(work_flow_links_[i]));
          }
          ++rp;
          continue;
        }
        if (kr.link < 0 &&
            (kr.work_begin == kr.work_end ||
             fixed_[static_cast<std::size_t>(kr.work_begin)])) {
          ++rp;  // cap round whose flow departed or was stolen
          continue;
        }
        break;
      }

      Rate kept_link_share = inf;
      Rate kept_link_key = inf;
      std::int32_t kept_link_gl = 0;
      Rate kept_cap = inf;
      if (rp < warm_kept_.size()) {
        const WarmKeptRound& kr = warm_kept_[rp];
        if (kr.link >= 0) {
          kept_link_share = kr.share;
          kept_link_key = kr.key;
          kept_link_gl = state.links[static_cast<std::size_t>(kr.link)];
        } else {
          kept_cap = kr.share;
        }
      }

      // Tightest cone entry; lazily discard/re-key stale entries,
      // keeping the key mirror in step.  The surviving head may carry
      // a key frozen above its current share (a dip) — cold orders
      // events by those frozen keys, so the merge must too.
      Rate cone_share = inf;
      Rate cone_key = inf;
      std::int32_t cone_gl = 0;
      while (!heap_.empty()) {
        const HeapEntry top = heap_.front();
        const auto d = static_cast<std::size_t>(top.dense);
        if (warm_active_[d] == 0) {
          std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
          heap_.pop_back();
          continue;
        }
        const Rate cur = state.remaining[d] / warm_active_[d];
        if (cur > top.share * (1 + kShareSlack)) {
          std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
          heap_.back().share = cur;
          warm_key_[d] = cur;
          std::push_heap(heap_.begin(), heap_.end(), heap_greater);
          continue;
        }
        cone_share = cur;
        cone_key = top.share;
        cone_gl = top.link;
        break;
      }

      // Tightest cone cap, skipping stolen flows.
      while (!warm_cap_heap_.empty() &&
             fixed_[static_cast<std::size_t>(warm_cap_heap_.front().second)]) {
        std::pop_heap(warm_cap_heap_.begin(), warm_cap_heap_.end(),
                      cap_greater);
        warm_cap_heap_.pop_back();
      }
      const Rate cone_cap =
          warm_cap_heap_.empty() ? inf : warm_cap_heap_.front().first;

      // Event selection in the cold solver's order: compare heap KEYS
      // (ties by global link id), then fire at current VALUES — cold's
      // lazy heap pops by key but settles at the live share.  The kept
      // head is the minimum over clean links (their keys evolve
      // exactly as recorded), the cone heap the minimum over cone
      // links; a kept *cap* head guarantees every clean share is at or
      // above it, so comparing it against the cone alone is exact.
      const bool kept_link_first =
          kept_link_key < cone_key ||
          (kept_link_key == cone_key && kept_link_gl < cone_gl);
      const Rate link_share = kept_link_first ? kept_link_share : cone_share;

      const Rate cap_val = std::min(kept_cap, cone_cap);
      if (std::isfinite(cap_val) && cap_val <= link_share) {
        round_key = cap_val;
        state.rounds.push_back(MaxMinWarmState::Round{
            static_cast<std::int32_t>(state.settles.size()), cap_val, -1,
            cap_val});
        if (kept_cap <= cone_cap) {
          // Equal caps are order-independent: both settle back to back
          // at their own value, so committing the kept one first stays
          // bitwise identical to any cold-solve cap order.
          settle_kept(static_cast<std::size_t>(warm_kept_[rp].work_begin));
          ++rp;
        } else {
          const auto w =
              static_cast<std::size_t>(warm_cap_heap_.front().second);
          std::pop_heap(warm_cap_heap_.begin(), warm_cap_heap_.end(),
                        cap_greater);
          warm_cap_heap_.pop_back();
          settle_cone(w, cone_cap);
        }
        continue;
      }

      RATS_REQUIRE(std::isfinite(link_share),
                   "no constraining link for active flows");
      if (kept_link_first) {
        const WarmKeptRound& kr = warm_kept_[rp];
        round_key = kr.key;
        state.rounds.push_back(MaxMinWarmState::Round{
            static_cast<std::int32_t>(state.settles.size()), kr.share,
            kr.link, kr.key});
        for (auto w = static_cast<std::size_t>(kr.work_begin);
             w < static_cast<std::size_t>(kr.work_end); ++w)
          settle_kept(w);
        ++rp;
      } else {
        const auto d = static_cast<std::size_t>(heap_.front().dense);
        std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
        heap_.pop_back();
        round_key = cone_key;
        state.rounds.push_back(MaxMinWarmState::Round{
            static_cast<std::int32_t>(state.settles.size()), cone_share,
            static_cast<std::int32_t>(d), cone_key});
        const auto c = static_cast<std::size_t>(csr_slot_[d]);
        for (auto i = static_cast<std::size_t>(work_csr_off_[c]);
             i < static_cast<std::size_t>(work_csr_off_[c + 1]); ++i) {
          const auto w = static_cast<std::size_t>(work_csr_[i]);
          if (fixed_[w]) continue;
          settle_cone(w, cone_share);
        }
      }
    }
  }

  // Compact departed loopback settles (always in the kept prefix, all
  // before the first round).
  if (!loopback_settles.empty()) {
    std::size_t out = 0, rm = 0;
    for (std::size_t s = 0; s < state.settles.size(); ++s) {
      if (rm < loopback_settles.size() &&
          loopback_settles[rm] == static_cast<std::int32_t>(s)) {
        ++rm;
        continue;
      }
      state.settles[out++] = state.settles[s];
    }
    state.settles.resize(out);
    for (MaxMinWarmState::Round& r : state.rounds)
      r.first_settle -= static_cast<std::int32_t>(rm);
  }
  stats.bump(stats.warm_hits);
  if (num_work > 0)
    stats.record_warm_replay(cone_fixed, num_work);
  return true;
}

std::vector<Rate> maxmin_fair_rates(const std::vector<Rate>& capacity,
                                    const std::vector<FlowDemand>& flows) {
  MaxMinSolver solver;
  std::vector<Rate> rates;
  solver.solve(capacity, flows, rates);
  return rates;
}

std::vector<Rate> maxmin_fair_rates_reference(
    const std::vector<Rate>& capacity, const std::vector<FlowDemand>& flows) {
  const std::size_t num_links = capacity.size();
  const std::size_t num_flows = flows.size();
  std::vector<Rate> rate(num_flows, 0.0);

  // Remaining capacity and number of still-unfixed flows per link.
  std::vector<Rate> remaining = capacity;
  std::vector<std::int32_t> active_count(num_links, 0);
  std::vector<char> fixed(num_flows, 0);
  std::vector<char> saturated(num_links, 0);

  std::size_t unfixed = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flows[f].links.empty()) {
      // Loopback: not constrained by any link.
      rate[f] = flows[f].cap;
      fixed[f] = 1;
      continue;
    }
    for (auto l : flows[f].links) {
      RATS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < num_links,
                   "flow references unknown link");
      RATS_REQUIRE(capacity[static_cast<std::size_t>(l)] > 0,
                   "used link must have positive capacity");
      ++active_count[static_cast<std::size_t>(l)];
    }
    ++unfixed;
  }

  // Progressive filling: repeatedly find the tightest constraint (link
  // fair share or flow cap) and fix every flow bound by it.
  while (unfixed > 0) {
    // Tightest link fair share among links still carrying unfixed flows.
    Rate share = std::numeric_limits<Rate>::infinity();
    for (std::size_t l = 0; l < num_links; ++l)
      if (active_count[l] > 0)
        share = std::min(share, remaining[l] / active_count[l]);
    RATS_REQUIRE(std::isfinite(share), "no constraining link for active flows");

    // Flows capped at or below the share saturate at their own cap
    // first; they consume less than a fair share, so fixing them can
    // only raise the share of the remaining flows (hence the loop).
    bool fixed_by_cap = false;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (fixed[f] || flows[f].cap > share) continue;
      rate[f] = flows[f].cap;
      fixed[f] = 1;
      --unfixed;
      fixed_by_cap = true;
      for (auto l : flows[f].links) {
        remaining[static_cast<std::size_t>(l)] -= rate[f];
        --active_count[static_cast<std::size_t>(l)];
      }
    }
    if (fixed_by_cap) continue;

    // Otherwise saturate the bottleneck link(s).  The saturated set is
    // snapshotted before fixing anything: fixing a flow mutates
    // remaining/active_count, so testing saturation on the live arrays
    // would make the outcome depend on flow index order.
    const Rate eps = share * 1e-12;
    for (std::size_t l = 0; l < num_links; ++l)
      saturated[l] = active_count[l] > 0 &&
                     remaining[l] / active_count[l] <= share + eps;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (fixed[f]) continue;
      bool bottlenecked = false;
      for (auto l : flows[f].links) {
        if (saturated[static_cast<std::size_t>(l)]) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rate[f] = share;
      fixed[f] = 1;
      --unfixed;
      for (auto l : flows[f].links) {
        const auto li = static_cast<std::size_t>(l);
        remaining[li] = std::max(0.0, remaining[li] - share);
        --active_count[li];
      }
    }
  }
  return rate;
}

}  // namespace rats
