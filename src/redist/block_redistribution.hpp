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
    /// One node's matching state, indexed by node id.  A field counts
    /// only while its stamp is the current plan's, so no plan clears
    /// the array.
    struct NodeSlot {
      std::uint64_t sender = 0;  ///< stamp: the node is a sender
      std::uint64_t used = 0;    ///< stamp: a receiver rank is the node's
      int rank = 0;              ///< the node's first sender rank
    };
    std::vector<Cand> cands;
    std::vector<NodeId> assignment;
    std::vector<NodeSlot> nodes;  ///< grown to the largest node id seen
    std::uint64_t plan = 0;       ///< the current plan's stamp
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
/// per in-edge).  It owns the matching scratch and the last plan, so
/// repeated planning allocates nothing once their buffers have grown.
/// The returned reference stays valid until the next `plan` call.  Not
/// thread-safe; use one instance per thread.
class RedistPlanner {
 public:
  /// Plans `total_bytes` from `senders` to `receivers` into the
  /// planner's plan; bitwise what `Redistribution::plan` returns.
  const Redistribution& plan(Bytes total_bytes,
                             const std::vector<NodeId>& senders,
                             const std::vector<NodeId>& receivers,
                             bool maximize_self = true) {
    Redistribution::plan_into(total_bytes, senders, receivers, maximize_self,
                              scratch_, plan_);
    return plan_;
  }

 private:
  Redistribution::PlanScratch scratch_;
  Redistribution plan_;
};

/// Overlap in bytes between sender rank `i` of `p` and receiver rank
/// `j` of `q` for a block-distributed dataset of `total` bytes.
Bytes block_overlap(Bytes total, int p, int i, int q, int j);

}  // namespace rats
