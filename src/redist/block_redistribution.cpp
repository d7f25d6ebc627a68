#include "redist/block_redistribution.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"

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

/// The receiver ranks [first, last] whose intervals meet sender rank
/// `i`'s, in exact integer arithmetic: rank i of p covers [i*q, (i+1)*q)
/// in units of total/(p*q), receiver rank j covers [j*p, (j+1)*p), so
/// they meet iff ceil(i*q/p) - 1 <= j <= floor((i+1)*q/p).  Every other
/// pair lies at least one unit apart, far beyond rounding error, so
/// `block_overlap` is 0 there; the walk keeps the zero-width boundary
/// pairs because rounding can give them a positive overlap.  At most
/// q + 2p pairs in all, against the p x q of a full scan.
std::pair<int, int> receiver_range(int p, int i, int q) {
  const std::int64_t iq = static_cast<std::int64_t>(i) * q;
  const std::int64_t first = (iq + p - 1) / p - 1;
  const std::int64_t last = (iq + q) / p;
  return {static_cast<int>(std::max<std::int64_t>(first, 0)),
          static_cast<int>(std::min<std::int64_t>(last, q - 1))};
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
    NodeId largest = 0;
    for (const auto* side : {&senders, &receivers})
      for (NodeId node : *side) {
        RATS_REQUIRE(node >= 0, "node ids must be non-negative");
        largest = std::max(largest, node);
      }
    auto& nodes = scratch.nodes;
    if (static_cast<std::size_t>(largest) >= nodes.size())
      nodes.resize(static_cast<std::size_t>(largest) + 1);
    const std::uint64_t plan = ++scratch.plan;
    const auto slot = [&](NodeId node) -> PlanScratch::NodeSlot& {
      return nodes[static_cast<std::size_t>(node)];
    };
    for (int i = 0; i < p; ++i) {
      PlanScratch::NodeSlot& s = slot(senders[static_cast<std::size_t>(i)]);
      if (s.sender == plan) continue;  // keep the node's first rank
      s.sender = plan;
      s.rank = i;
    }

    auto& cands = scratch.cands;
    cands.clear();
    for (NodeId node : receivers) {
      const PlanScratch::NodeSlot& s = slot(node);
      if (s.sender != plan) continue;
      const auto [first, last] = receiver_range(p, s.rank, q);
      for (int j = first; j <= last; ++j) {
        const Bytes ov = block_overlap(total_bytes, p, s.rank, q, j);
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
    for (const PlanScratch::Cand& c : cands) {
      PlanScratch::NodeSlot& s = slot(c.node);
      if (s.used == plan || assignment[static_cast<std::size_t>(c.rank)] != kNoNode)
        continue;
      assignment[static_cast<std::size_t>(c.rank)] = c.node;
      s.used = plan;
    }
    // Fill the remaining ranks with the unassigned nodes in their
    // original order.
    std::size_t next = 0;
    for (NodeId node : receivers) {
      PlanScratch::NodeSlot& s = slot(node);
      if (s.used == plan) continue;
      while (assignment[next] != kNoNode) ++next;
      assignment[next] = node;
      s.used = plan;
    }
    out.receiver_order_.assign(assignment.begin(), assignment.end());
  }

  for (int i = 0; i < p; ++i) {
    const auto [first, last] = receiver_range(p, i, q);
    for (int j = first; j <= last; ++j) {
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

}  // namespace rats
