#include "redist/block_redistribution.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace rats {

Bytes block_overlap(Bytes total, int p, int i, int q, int j) {
  RATS_REQUIRE(p > 0 && q > 0, "distribution needs at least one rank");
  RATS_REQUIRE(i >= 0 && i < p && j >= 0 && j < q, "rank out of range");
  const double lo_s = total * static_cast<double>(i) / p;
  const double hi_s = total * static_cast<double>(i + 1) / p;
  const double lo_r = total * static_cast<double>(j) / q;
  const double hi_r = total * static_cast<double>(j + 1) / q;
  return std::max(0.0, std::min(hi_s, hi_r) - std::max(lo_s, lo_r));
}

namespace {

/// Sorted flat map lookup; returns nullptr when `node` is absent.
template <typename Pair>
Pair* flat_find(std::vector<Pair>& entries, NodeId node) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), node,
      [](const Pair& a, NodeId n) { return a.first < n; });
  if (it == entries.end() || it->first != node) return nullptr;
  return &*it;
}

/// Sorts a flat (node, value) map by node and keeps each node's FIRST
/// inserted value (std::map::emplace semantics the original code had).
template <typename Pair>
void sort_unique_by_node(std::vector<Pair>& entries) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Pair& a, const Pair& b) { return a.first < b.first; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Pair& a, const Pair& b) {
                              return a.first == b.first;
                            }),
                entries.end());
}

}  // namespace

void Redistribution::plan_into(Bytes total_bytes,
                               const std::vector<NodeId>& senders,
                               const std::vector<NodeId>& receivers,
                               bool maximize_self, PlanScratch& scratch,
                               Redistribution& out) {
  RATS_REQUIRE(total_bytes >= 0, "volume must be non-negative");
  RATS_REQUIRE(!senders.empty() && !receivers.empty(),
               "redistribution needs sender and receiver ranks");

  out.sender_order_ = senders;
  out.receiver_order_ = receivers;
  out.total_ = total_bytes;
  out.self_bytes_ = 0;
  out.remote_bytes_ = 0;
  out.transfers_.clear();
  const int p = static_cast<int>(senders.size());
  const int q = static_cast<int>(receivers.size());

  if (maximize_self) {
    // Permute the receiver rank -> node assignment so that nodes
    // present on both sides get the receiver interval overlapping
    // their sender interval the most.  Greedy matching on descending
    // overlap; ties broken deterministically by (node, rank).
    auto& sender_rank = scratch.sender_rank;  // node -> first sender rank
    sender_rank.clear();
    for (int i = 0; i < p; ++i) sender_rank.emplace_back(senders[i], i);
    sort_unique_by_node(sender_rank);

    auto& cands = scratch.cands;
    cands.clear();
    for (NodeId node : receivers) {
      const auto* hit = flat_find(sender_rank, node);
      if (!hit) continue;
      for (int j = 0; j < q; ++j) {
        const Bytes ov = block_overlap(total_bytes, p, hit->second, q, j);
        if (ov > 0) cands.push_back(PlanScratch::Cand{ov, node, j});
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const PlanScratch::Cand& a, const PlanScratch::Cand& b) {
                if (a.overlap != b.overlap) return a.overlap > b.overlap;
                if (a.node != b.node) return a.node < b.node;
                return a.rank < b.rank;
              });

    auto& assignment = scratch.assignment;
    assignment.assign(static_cast<std::size_t>(q), kNoNode);
    auto& node_used = scratch.node_used;
    node_used.clear();
    for (NodeId node : receivers) node_used.emplace_back(node, 0);
    sort_unique_by_node(node_used);
    for (const PlanScratch::Cand& c : cands) {
      auto* used = flat_find(node_used, c.node);
      if (used->second || assignment[static_cast<std::size_t>(c.rank)] != kNoNode)
        continue;
      assignment[static_cast<std::size_t>(c.rank)] = c.node;
      used->second = 1;
    }
    // Fill the remaining ranks with the unassigned nodes in their
    // original order.
    std::size_t next = 0;
    for (NodeId node : receivers) {
      auto* used = flat_find(node_used, node);
      if (used->second) continue;
      while (assignment[next] != kNoNode) ++next;
      assignment[next] = node;
      used->second = 1;
    }
    out.receiver_order_.assign(assignment.begin(), assignment.end());
  }

  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < q; ++j) {
      const Bytes ov = block_overlap(total_bytes, p, i, q, j);
      if (ov <= 0) continue;
      const NodeId src = out.sender_order_[static_cast<std::size_t>(i)];
      const NodeId dst = out.receiver_order_[static_cast<std::size_t>(j)];
      if (src == dst) {
        out.self_bytes_ += ov;
      } else {
        out.remote_bytes_ += ov;
        out.transfers_.push_back(Transfer{src, dst, ov});
      }
    }
  }
}

Redistribution Redistribution::plan(Bytes total_bytes,
                                    const std::vector<NodeId>& senders,
                                    const std::vector<NodeId>& receivers,
                                    bool maximize_self) {
  Redistribution r;
  PlanScratch scratch;
  plan_into(total_bytes, senders, receivers, maximize_self, scratch, r);
  return r;
}

std::vector<std::vector<Bytes>> Redistribution::matrix() const {
  const int p = senders();
  const int q = receivers();
  std::vector<std::vector<Bytes>> m(static_cast<std::size_t>(p),
                                    std::vector<Bytes>(static_cast<std::size_t>(q), 0.0));
  for (int i = 0; i < p; ++i)
    for (int j = 0; j < q; ++j)
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          block_overlap(total_, p, i, q, j);
  return m;
}

// ---- RedistPlanner -----------------------------------------------------

namespace {

/// Process-wide planner statistics, registry-backed (obs::).  Counters
/// are bumped live on every lookup (relaxed atomics, gated on
/// obs::metrics_enabled()) rather than folded in planner destructors:
/// the persistent worker pool's threads — and their thread-local
/// simulator planners — outlive any snapshot, so destructor folding
/// silently dropped every pool worker's lookups.
///
/// The counters are registered Volatile: the per-thread LRU caches
/// mean a lookup's hit/miss depends on which worker ran the prior
/// runs, so the split is thread-scheduling-dependent.
struct PlannerStats {
  obs::Counter& hits = obs::counter("redist/plan/hits", obs::Stability::Volatile);
  obs::Counter& misses =
      obs::counter("redist/plan/misses", obs::Stability::Volatile);
  obs::Counter& sim_hits =
      obs::counter("redist/plan/sim_hits", obs::Stability::Volatile);
  obs::Counter& sim_misses =
      obs::counter("redist/plan/sim_misses", obs::Stability::Volatile);
  void bump(bool sim_side, bool hit) {
    auto& counter = sim_side ? (hit ? sim_hits : sim_misses)
                             : (hit ? hits : misses);
    counter.inc();
  }
};
PlannerStats& planner_stats() {
  static PlannerStats stats;
  return stats;
}

}  // namespace

std::size_t RedistPlanner::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the flag, volume key and node lists.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(k.maximize_self ? 1 : 0);
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(k.volume_key));
  std::memcpy(&bits, &k.volume_key, sizeof(bits));
  mix(bits);
  mix(k.senders.size());
  for (NodeId n : k.senders) mix(static_cast<std::uint64_t>(n));
  mix(k.receivers.size());
  for (NodeId n : k.receivers) mix(static_cast<std::uint64_t>(n));
  return static_cast<std::size_t>(h);
}

const Redistribution& RedistPlanner::plan(Bytes total_bytes,
                                          const std::vector<NodeId>& senders,
                                          const std::vector<NodeId>& receivers,
                                          bool maximize_self) {
  // Validate before touching the cache: the hit/rescale paths never
  // reach plan_into's checks, and a throw after the miss-path emplace
  // would leave a half-initialized entry behind to be served later.
  RATS_REQUIRE(total_bytes >= 0, "volume must be non-negative");
  RATS_REQUIRE(!senders.empty() && !receivers.empty(),
               "redistribution needs sender and receiver ranks");
  // Volume-independent plan structure (see the class comment):
  //  * no matching at all (!maximize_self), or
  //  * p == q — every shared node's single positive-overlap candidate
  //    is its own rank, so the matching is conflict-free and its
  //    rounding-sensitive tie order cannot change the outcome, or
  //  * disjoint node sets — no candidates, permutation is the input
  //    order.
  // Everything else keys on the raw volume; volume 0 (empty plan,
  // unpermuted order even where a matched volume would permute) gets
  // its own sentinel class.
  bool scale_safe = !maximize_self || senders.size() == receivers.size();
  if (!scale_safe) {
    NodeId max_node = -1;
    for (const NodeId n : senders) max_node = std::max(max_node, n);
    for (const NodeId n : receivers) max_node = std::max(max_node, n);
    if (node_stamp_.size() <= static_cast<std::size_t>(max_node))
      node_stamp_.resize(static_cast<std::size_t>(max_node) + 1, 0);
    ++stamp_;
    for (const NodeId n : senders)
      node_stamp_[static_cast<std::size_t>(n)] = stamp_;
    scale_safe = true;
    for (const NodeId n : receivers)
      if (node_stamp_[static_cast<std::size_t>(n)] == stamp_) {
        scale_safe = false;
        break;
      }
  }
  probe_.maximize_self = maximize_self;
  probe_.volume_key =
      total_bytes == 0 ? -1.0 : (scale_safe ? 0.0 : total_bytes);
  probe_.senders = senders;      // reuses probe_'s capacity
  probe_.receivers = receivers;
  ++tick_;
  const auto hit = cache_.find(probe_);
  if (obs::metrics_enabled())
    planner_stats().bump(sim_side_, hit != cache_.end());
  if (hit != cache_.end()) {
    ++hits_;
    CacheEntry& entry = hit->second;
    entry.last_used = tick_;
    if (entry.volume == total_bytes) return entry.plan;
    // Same geometry, different volume (scale-safe entries only): the
    // permutation carries over and each candidate pair's byte count is
    // re-derived with the exact `block_overlap` expression — and the
    // same positivity test — a fresh plan would evaluate.
    scaled_.sender_order_ = entry.plan.sender_order_;
    scaled_.receiver_order_ = entry.plan.receiver_order_;
    scaled_.total_ = total_bytes;
    scaled_.self_bytes_ = 0;
    scaled_.remote_bytes_ = 0;
    scaled_.transfers_.clear();
    const int p = entry.plan.senders();
    const int q = entry.plan.receivers();
    for (const auto& [i, j] : entry.pairs) {
      const Bytes ov = block_overlap(total_bytes, p, i, q, j);
      if (ov <= 0) continue;  // exact-boundary pair below rounding
      const NodeId src = scaled_.sender_order_[static_cast<std::size_t>(i)];
      const NodeId dst = scaled_.receiver_order_[static_cast<std::size_t>(j)];
      if (src == dst) {
        scaled_.self_bytes_ += ov;
      } else {
        scaled_.remote_bytes_ += ov;
        scaled_.transfers_.push_back(Transfer{src, dst, ov});
      }
    }
    return scaled_;
  }
  ++misses_;
  if (cache_.size() >= capacity_) {
    // Batch-evict the least recently used half: one O(capacity) pass
    // per capacity/2 misses keeps eviction O(1) amortized without an
    // intrusive LRU list.
    ticks_scratch_.clear();
    ticks_scratch_.reserve(cache_.size());
    for (const auto& [key, entry] : cache_)
      ticks_scratch_.push_back(entry.last_used);
    auto mid = ticks_scratch_.begin() +
               static_cast<std::ptrdiff_t>(ticks_scratch_.size() / 2);
    std::nth_element(ticks_scratch_.begin(), mid, ticks_scratch_.end());
    // Ticks are unique, so erasing <= cutoff drops the median entry too
    // — at least one entry always goes, keeping the bound even at
    // capacity 1.
    const std::uint64_t cutoff = *mid;
    for (auto it = cache_.begin(); it != cache_.end();)
      it = it->second.last_used <= cutoff ? cache_.erase(it) : std::next(it);
  }
  auto [slot, inserted] = cache_.emplace(std::move(probe_), CacheEntry{});
  CacheEntry& entry = slot->second;
  entry.last_used = tick_;
  entry.volume = total_bytes;
  Redistribution::plan_into(total_bytes, senders, receivers, maximize_self,
                            scratch_, entry.plan);
  // Record the candidate pair set in *exact* integer interval
  // arithmetic (rank i of p covers [i*q, (i+1)*q) in units of
  // total/(p*q)) so hits at other volumes walk the same pairs in the
  // identical order: strictly-overlapping pairs always transfer;
  // exact-boundary pairs (zero-width intersection) transfer only when
  // rounding at that volume says so.  Volume-keyed entries (and the
  // volume-0 sentinel class) can only ever hit at their own volume, so
  // they skip the pair recording entirely.
  if (scale_safe && total_bytes != 0) {
    const auto p64 = static_cast<std::int64_t>(senders.size());
    const auto q64 = static_cast<std::int64_t>(receivers.size());
    for (std::int64_t i = 0; i < p64; ++i)
      for (std::int64_t j = 0; j < q64; ++j)
        if (std::min((i + 1) * q64, (j + 1) * p64) -
                std::max(i * q64, j * p64) >=
            0)
          entry.pairs.emplace_back(static_cast<std::int32_t>(i),
                                   static_cast<std::int32_t>(j));
  }
  return entry.plan;
}

}  // namespace rats
