// 1-D block data redistribution (paper Section II-A, Table I).
//
// Data is always distributed following a one-dimensional block
// distribution: a task working on B bytes mapped onto p processors
// gives rank r the contiguous interval [r*B/p, (r+1)*B/p).  The
// communication matrix between a producer on p processors and a
// consumer on q processors is the pairwise overlap of the two interval
// families — at most p + q - 1 non-empty entries.
//
// When sender and receiver processor sets share nodes, the receiver's
// rank-to-node assignment is permuted to maximize the number of bytes
// that stay on-node ("self communications"), which the paper's
// redistribution algorithm does as well.  Two tasks mapped on the same
// set of processors therefore exchange zero bytes over the network.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "platform/cluster.hpp"

namespace rats {

/// One point-to-point transfer of a redistribution.
struct Transfer {
  NodeId src{};
  NodeId dst{};
  Bytes bytes{};
};

/// The planned redistribution of a block-distributed dataset.
class Redistribution {
 public:
  /// Plans the redistribution of `total_bytes` from the ordered sender
  /// processor list to the receiver processor list.
  ///
  /// `receivers` gives the *nodes* of the consumer allocation; when
  /// `maximize_self` is set (the default, as in the paper) their rank
  /// order may be permuted so nodes appearing on both sides keep as
  /// much data local as possible.  The chosen order is available from
  /// `receiver_order()` and is what the consumer task runs with.
  static Redistribution plan(Bytes total_bytes,
                             const std::vector<NodeId>& senders,
                             const std::vector<NodeId>& receivers,
                             bool maximize_self = true);

  /// Cross-node transfers only (self communications carry no cost).
  const std::vector<Transfer>& transfers() const { return transfers_; }

  /// Bytes that stay on their node.
  Bytes self_bytes() const { return self_bytes_; }
  /// Bytes crossing the network.
  Bytes remote_bytes() const { return remote_bytes_; }
  Bytes total_bytes() const { return self_bytes_ + remote_bytes_; }

  /// Receiver nodes in final rank order (after the self-communication
  /// permutation).
  const std::vector<NodeId>& receiver_order() const { return receiver_order_; }

  /// Dense p x q communication matrix in bytes, indexed
  /// [sender rank][receiver rank]; includes self-communication entries.
  /// Reproduces Table I of the paper for disjoint sets.
  std::vector<std::vector<Bytes>> matrix() const;

  int senders() const { return static_cast<int>(sender_order_.size()); }
  int receivers() const { return static_cast<int>(receiver_order_.size()); }

 private:
  Redistribution() = default;

  friend class RedistPlanner;

  /// Scratch buffers for the self-communication matching; owned by the
  /// caller so repeated planning allocates nothing after warm-up.
  struct PlanScratch {
    struct Cand {
      Bytes overlap;
      NodeId node;
      int rank;  ///< candidate receiver rank
    };
    std::vector<Cand> cands;
    std::vector<NodeId> assignment;
    std::vector<std::pair<NodeId, int>> sender_rank;  ///< sorted by node
    std::vector<std::pair<NodeId, char>> node_used;   ///< sorted by node
  };

  /// The planning core shared by `plan` and `RedistPlanner`.
  static void plan_into(Bytes total_bytes, const std::vector<NodeId>& senders,
                        const std::vector<NodeId>& receivers,
                        bool maximize_self, PlanScratch& scratch,
                        Redistribution& out);

  std::vector<NodeId> sender_order_;
  std::vector<NodeId> receiver_order_;
  Bytes total_{};
  Bytes self_bytes_{};
  Bytes remote_bytes_{};
  std::vector<Transfer> transfers_;
};

/// Reusable redistribution planner for hot paths (the simulator opens a
/// plan per DAG edge; the mapper estimates one per candidate placement
/// per in-edge).  Two layers:
///  * persistent planning scratch, so a miss allocates only what the
///    resulting plan itself needs;
///  * an LRU cache keyed on the redistribution's *geometry* — (sender
///    list, receiver list, maximize_self) — rather than on the raw
///    byte volume whenever the plan structure is provably
///    volume-independent: bytes scale linearly, and for disjoint
///    sender/receiver node sets (no self-communication matching) or
///    p == q (every shared node's only candidate is its own rank, so
///    the matching cannot conflict) the receiver permutation and the
///    overlapping rank pairs are functions of the geometry alone.  A
///    cached entry stores the plan at the first-seen volume plus the
///    rank-pair list classified by *exact integer* interval
///    arithmetic: strictly-overlapping pairs are rebuilt at any volume
///    with `block_overlap` (bitwise what a fresh plan computes), and
///    boundary pairs — zero overlap in exact arithmetic, where
///    rounding can produce an epsilon-transfer that a fresh plan would
///    also emit — are re-tested per volume.  Geometries with shared
///    nodes and p != q keep the volume in the key (their matching tie
///    order is rounding-sensitive and must match a fresh plan's).
/// The returned reference stays valid until the next `plan` call (an
/// insertion may evict the least recently used entry).  Not
/// thread-safe; use one instance per thread.  Every lookup bumps the
/// process-wide `redist/plan/*` metrics counters, split by call-site
/// (simulator vs mapper, see `tag_simulator`).
class RedistPlanner {
 public:
  /// `capacity` bounds the number of cached plans (LRU batch eviction:
  /// the least recently used half is dropped when the cache fills).
  explicit RedistPlanner(std::size_t capacity = 4096)
      : capacity_(capacity ? capacity : 1) {}

  /// Plans `total_bytes` from `senders` to `receivers`, or rescales the
  /// cached plan of the geometrically-identical request.
  const Redistribution& plan(Bytes total_bytes,
                             const std::vector<NodeId>& senders,
                             const std::vector<NodeId>& receivers,
                             bool maximize_self = true);

  std::size_t cache_size() const { return cache_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Attributes this planner's lookups to the `redist/plan/sim_*`
  /// counters (so sim-side and mapper-side hit rates report
  /// separately).
  void tag_simulator() { sim_side_ = true; }

 private:
  struct Key {
    bool maximize_self;
    /// 0 for volume-independent geometries, the sentinel -1 for
    /// volume-0 requests (their plan is empty and their receiver order
    /// unpermuted, unlike a matched nonzero-volume plan of the same
    /// geometry), and the raw volume otherwise.
    Bytes volume_key;
    std::vector<NodeId> senders;
    std::vector<NodeId> receivers;
    bool operator==(const Key& o) const {
      return maximize_self == o.maximize_self &&
             volume_key == o.volume_key && senders == o.senders &&
             receivers == o.receivers;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct CacheEntry {
    Redistribution plan;  ///< planned at `volume`
    Bytes volume = 0;     ///< first-seen byte volume
    /// Rank pairs with non-negative overlap in *exact* interval
    /// arithmetic, in sender-major order — including self
    /// communications and exact-boundary pairs, so a rescale walks
    /// precisely the pairs a fresh plan might emit, in its order, and
    /// keeps each iff its recomputed overlap is positive.
    std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
    std::uint64_t last_used = 0;
  };

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::unordered_map<Key, CacheEntry, KeyHash> cache_;
  std::vector<std::uint64_t> ticks_scratch_;  ///< batch-eviction scratch
  Redistribution::PlanScratch scratch_;
  Redistribution scaled_;  ///< rescale target for different-volume hits
  Key probe_;  ///< reused lookup key (avoids per-call vector copies)
  // Disjointness test scratch (node id -> last stamp that saw it as a
  // sender).
  std::vector<std::uint64_t> node_stamp_;
  std::uint64_t stamp_ = 0;
  bool sim_side_ = false;  ///< stats bucket (see tag_simulator)
};

/// Overlap in bytes between sender rank `i` of `p` and receiver rank
/// `j` of `q` for a block-distributed dataset of `total` bytes.
Bytes block_overlap(Bytes total, int p, int i, int q, int j);

}  // namespace rats
