// Unit and property tests for 1-D block redistribution, including the
// paper's Table I communication matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "platform/grid5000.hpp"
#include "redist/block_redistribution.hpp"
#include "redist/estimate.hpp"

namespace rats {
namespace {

std::vector<NodeId> nodes(std::initializer_list<NodeId> ids) { return ids; }

// ------------------------------------------------------------ overlap

TEST(BlockOverlap, IdentityDistribution) {
  EXPECT_DOUBLE_EQ(block_overlap(100, 4, 2, 4, 2), 25.0);
  EXPECT_DOUBLE_EQ(block_overlap(100, 4, 2, 4, 3), 0.0);
}

TEST(BlockOverlap, RejectsBadRanks) {
  EXPECT_THROW(block_overlap(100, 4, 4, 4, 0), Error);
  EXPECT_THROW(block_overlap(100, 0, 0, 4, 0), Error);
}

// The exact communication matrix of Table I: 10 units of data, p = 4
// senders, q = 5 receivers.
TEST(Redistribution, TableOneMatrix) {
  const auto r = Redistribution::plan(10.0, nodes({0, 1, 2, 3}),
                                      nodes({4, 5, 6, 7, 8}));
  const auto m = r.matrix();
  const std::vector<std::vector<double>> expected = {
      {2.0, 0.5, 0.0, 0.0, 0.0},
      {0.0, 1.5, 1.0, 0.0, 0.0},
      {0.0, 0.0, 1.0, 1.5, 0.0},
      {0.0, 0.0, 0.0, 0.5, 2.0},
  };
  ASSERT_EQ(m.size(), 4u);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j)
      EXPECT_NEAR(m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  expected[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)],
                  1e-12)
          << "entry (" << i << "," << j << ")";
}

TEST(Redistribution, DisjointSetsHaveNoSelfBytes) {
  const auto r = Redistribution::plan(10.0, nodes({0, 1, 2, 3}),
                                      nodes({4, 5, 6, 7, 8}));
  EXPECT_DOUBLE_EQ(r.self_bytes(), 0.0);
  EXPECT_NEAR(r.remote_bytes(), 10.0, 1e-12);
  // Block overlap yields at most p + q - 1 transfers.
  EXPECT_LE(r.transfers().size(), 8u);
}

TEST(Redistribution, SameOrderedSetIsAllSelf) {
  const auto r =
      Redistribution::plan(1e6, nodes({3, 1, 4}), nodes({3, 1, 4}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_DOUBLE_EQ(r.remote_bytes(), 0.0);
  EXPECT_NEAR(r.self_bytes(), 1e6, 1e-6);
}

TEST(Redistribution, SameSetDifferentOrderRecoversIdentity) {
  // The self-communication maximization permutes receivers back into
  // the senders' order, so no byte crosses the network.
  const auto r =
      Redistribution::plan(1e6, nodes({3, 1, 4}), nodes({4, 3, 1}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_EQ(r.receiver_order(), nodes({3, 1, 4}));
}

TEST(Redistribution, WithoutMaximizationSamePermutedSetCommunicates) {
  const auto r = Redistribution::plan(1e6, nodes({3, 1, 4}),
                                      nodes({4, 3, 1}), false);
  EXPECT_FALSE(r.transfers().empty());
  EXPECT_GT(r.remote_bytes(), 0.0);
}

TEST(Redistribution, PartialOverlapKeepsSharedNodesLocal) {
  // Senders {0,1}, receivers {1,2}: node 1 appears on both sides and
  // should keep its half local.
  const auto r = Redistribution::plan(100.0, nodes({0, 1}), nodes({1, 2}));
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  EXPECT_NEAR(r.remote_bytes(), 50.0, 1e-9);
  // Receiver rank 1 (second half) is node 1.
  EXPECT_EQ(r.receiver_order()[1], 1);
}

TEST(Redistribution, GrowingAllocationOneToTwo) {
  const auto r = Redistribution::plan(100.0, nodes({0}), nodes({0, 1}));
  // Node 0 keeps its first half, sends second half to node 1.
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  ASSERT_EQ(r.transfers().size(), 1u);
  EXPECT_EQ(r.transfers()[0].src, 0);
  EXPECT_EQ(r.transfers()[0].dst, 1);
  EXPECT_NEAR(r.transfers()[0].bytes, 50.0, 1e-9);
}

TEST(Redistribution, ShrinkingAllocationTwoToOne) {
  const auto r = Redistribution::plan(100.0, nodes({0, 1}), nodes({1}));
  // Receiver is node 1: it keeps its half, gets node 0's half.
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  ASSERT_EQ(r.transfers().size(), 1u);
  EXPECT_EQ(r.transfers()[0].src, 0);
}

TEST(Redistribution, ZeroBytesYieldsNoTransfers) {
  const auto r = Redistribution::plan(0.0, nodes({0, 1}), nodes({2, 3}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_DOUBLE_EQ(r.total_bytes(), 0.0);
}

TEST(Redistribution, RejectsEmptyRanks) {
  EXPECT_THROW(Redistribution::plan(10.0, {}, nodes({0})), Error);
  EXPECT_THROW(Redistribution::plan(10.0, nodes({0}), {}), Error);
  EXPECT_THROW(Redistribution::plan(-1.0, nodes({0}), nodes({1})), Error);
  // The self-communication matching indexes its scratch by node id.
  EXPECT_THROW(Redistribution::plan(10.0, nodes({0}), nodes({-1})), Error);
}

// --------------------------------------------------------- properties

class RedistConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RedistConservation, BytesConservedAndMatrixConsistent) {
  const auto [p, q] = GetParam();
  const double total = 1e7;
  std::vector<NodeId> senders, receivers;
  for (int i = 0; i < p; ++i) senders.push_back(i);
  for (int j = 0; j < q; ++j) receivers.push_back(100 + j);  // disjoint
  const auto r = Redistribution::plan(total, senders, receivers);

  // All bytes cross the network (disjoint) and are conserved.
  EXPECT_NEAR(r.remote_bytes(), total, total * 1e-12);
  double sum = 0;
  for (const auto& t : r.transfers()) sum += t.bytes;
  EXPECT_NEAR(sum, total, total * 1e-12);

  // Matrix rows sum to the sender share, columns to the receiver share.
  const auto m = r.matrix();
  for (int i = 0; i < p; ++i) {
    const double row = std::accumulate(m[static_cast<std::size_t>(i)].begin(),
                                       m[static_cast<std::size_t>(i)].end(),
                                       0.0);
    EXPECT_NEAR(row, total / p, total * 1e-12);
  }
  for (int j = 0; j < q; ++j) {
    double col = 0;
    for (int i = 0; i < p; ++i)
      col += m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    EXPECT_NEAR(col, total / q, total * 1e-12);
  }

  // Interval overlap structure: at most p + q - 1 non-zero transfers.
  EXPECT_LE(r.transfers().size(), static_cast<std::size_t>(p + q - 1));
}

INSTANTIATE_TEST_SUITE_P(
    PQGrid, RedistConservation,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 16, 24),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 24)));

class RedistSelfMaximization : public ::testing::TestWithParam<int> {};

TEST_P(RedistSelfMaximization, SharedSubsetKeepsDataLocal) {
  // Senders [0, n), receivers [0, n) shuffled: identity must be found.
  const int n = GetParam();
  std::vector<NodeId> senders, receivers;
  for (int i = 0; i < n; ++i) senders.push_back(i);
  for (int i = 0; i < n; ++i) receivers.push_back((i * 7 + 3) % n);
  const auto r = Redistribution::plan(1e6, senders, receivers);
  EXPECT_TRUE(r.transfers().empty()) << "n=" << n;
  EXPECT_EQ(r.receiver_order(), senders);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RedistSelfMaximization,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20, 47));

// ----------------------------------------------------------- estimate

TEST(Estimate, ZeroWhenNoNetworkTraffic) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  EXPECT_DOUBLE_EQ(
      estimate_redistribution_time(c, 1e6, nodes({0, 1}), nodes({0, 1})),
      0.0);
}

TEST(Estimate, SingleTransferMatchesLatencyPlusSerialization) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  // 1 -> 2 processors: 62.5 MB cross the NIC at 125 MB/s.
  const Seconds t =
      estimate_redistribution_time(c, 125e6, nodes({0}), nodes({0, 1}));
  EXPECT_NEAR(t, 2e-4 + 0.5, 1e-9);
}

TEST(Estimate, BoundedByMostLoadedEndpoint) {
  const Cluster c = Cluster::flat("t", 8, 1e9, 100e-6, 125e6);
  // 1 sender scatters to 4 disjoint receivers: sender NIC carries all.
  const Seconds t = estimate_redistribution_time(c, 125e6, nodes({0}),
                                                 nodes({1, 2, 3, 4}));
  EXPECT_NEAR(t, 2e-4 + 1.0, 1e-9);
}

TEST(Estimate, AccountsForCabinetUplinks) {
  const Cluster c = Cluster::hierarchical("h", 2, 2, 1e9, 100e-6, 125e6,
                                          100e-6, 125e6);
  // Both nodes of cabinet 0 send half of 250 MB to cabinet 1: every
  // byte crosses the shared uplink -> uplink serialization dominates.
  const Seconds t = estimate_redistribution_time(c, 250e6, nodes({0, 1}),
                                                 nodes({2, 3}));
  EXPECT_NEAR(t, 4e-4 + 2.0, 1e-9);
}

TEST(Estimate, ScalesLinearlyWithVolume) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  const Seconds t1 =
      estimate_redistribution_time(c, 1e6, nodes({0, 1}), nodes({2, 3}));
  const Seconds t2 =
      estimate_redistribution_time(c, 2e6, nodes({0, 1}), nodes({2, 3}));
  EXPECT_NEAR(t2 - 2e-4, 2.0 * (t1 - 2e-4), 1e-9);
}

// --------------------------------------------------------- RedistPlanner

void expect_same_plan(const Redistribution& a, const Redistribution& b) {
  EXPECT_EQ(a.self_bytes(), b.self_bytes());
  EXPECT_EQ(a.remote_bytes(), b.remote_bytes());
  EXPECT_EQ(a.receiver_order(), b.receiver_order());
  ASSERT_EQ(a.transfers().size(), b.transfers().size());
  for (std::size_t i = 0; i < a.transfers().size(); ++i) {
    EXPECT_EQ(a.transfers()[i].src, b.transfers()[i].src);
    EXPECT_EQ(a.transfers()[i].dst, b.transfers()[i].dst);
    EXPECT_EQ(a.transfers()[i].bytes, b.transfers()[i].bytes);
  }
}

TEST(RedistPlanner, MatchesTheStaticPlanner) {
  RedistPlanner planner;
  // Disjoint, overlapping and identical sets, self-matching on and off.
  const std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> cases =
      {{nodes({0, 1, 2}), nodes({3, 4})},
       {nodes({0, 1, 2, 3}), nodes({2, 3, 4})},
       {nodes({3, 1, 4}), nodes({4, 3, 1})},
       {nodes({5}), nodes({5, 6, 7})}};
  for (const auto& [senders, receivers] : cases) {
    for (bool maximize : {true, false}) {
      expect_same_plan(planner.plan(1e7, senders, receivers, maximize),
                       Redistribution::plan(1e7, senders, receivers, maximize));
    }
  }
}

// ------------------------------------------------- full-scan oracles

/// Bit pattern of a double, so the oracles below compare bitwise.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A plan as the reference planner below computes it.
struct RefPlan {
  std::vector<NodeId> receiver_order;
  std::vector<Transfer> transfers;
  Bytes self_bytes = 0;
  Bytes remote_bytes = 0;
};

/// Reference planner: tests every one of the p x q rank pairs, both for
/// the self-communication matching candidates and for the transfer
/// list.  The candidate walk must reproduce it bit for bit.
RefPlan full_scan_plan(Bytes total, const std::vector<NodeId>& senders,
                       const std::vector<NodeId>& receivers,
                       bool maximize_self) {
  const int p = static_cast<int>(senders.size());
  const int q = static_cast<int>(receivers.size());
  RefPlan r;
  r.receiver_order = receivers;
  if (maximize_self) {
    std::map<NodeId, int> sender_rank;
    for (int i = 0; i < p; ++i)
      sender_rank.emplace(senders[static_cast<std::size_t>(i)], i);
    struct Cand {
      Bytes overlap;
      NodeId node;
      int rank;
    };
    std::vector<Cand> cands;
    for (NodeId node : receivers) {
      const auto hit = sender_rank.find(node);
      if (hit == sender_rank.end()) continue;
      for (int j = 0; j < q; ++j) {
        const Bytes ov = block_overlap(total, p, hit->second, q, j);
        if (ov > 0) cands.push_back(Cand{ov, node, j});
      }
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.overlap != b.overlap) return a.overlap > b.overlap;
      if (a.node != b.node) return a.node < b.node;
      return a.rank < b.rank;
    });
    std::vector<NodeId> assignment(static_cast<std::size_t>(q), kNoNode);
    std::set<NodeId> used;
    for (const Cand& c : cands) {
      if (used.count(c.node) ||
          assignment[static_cast<std::size_t>(c.rank)] != kNoNode)
        continue;
      assignment[static_cast<std::size_t>(c.rank)] = c.node;
      used.insert(c.node);
    }
    std::size_t next = 0;
    for (NodeId node : receivers) {
      if (!used.insert(node).second) continue;
      while (assignment[next] != kNoNode) ++next;
      assignment[next] = node;
    }
    r.receiver_order = assignment;
  }
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < q; ++j) {
      const Bytes ov = block_overlap(total, p, i, q, j);
      if (ov <= 0) continue;
      const NodeId src = senders[static_cast<std::size_t>(i)];
      const NodeId dst = r.receiver_order[static_cast<std::size_t>(j)];
      if (src == dst) {
        r.self_bytes += ov;
      } else {
        r.remote_bytes += ov;
        r.transfers.push_back(Transfer{src, dst, ov});
      }
    }
  }
  return r;
}

bool same_plan_bits(const Redistribution& a, const RefPlan& b) {
  if (bits(a.self_bytes()) != bits(b.self_bytes) ||
      bits(a.remote_bytes()) != bits(b.remote_bytes) ||
      a.receiver_order() != b.receiver_order ||
      a.transfers().size() != b.transfers.size())
    return false;
  for (std::size_t i = 0; i < b.transfers.size(); ++i) {
    const Transfer& x = a.transfers()[i];
    const Transfer& y = b.transfers[i];
    if (x.src != y.src || x.dst != y.dst || bits(x.bytes) != bits(y.bytes))
      return false;
  }
  return true;
}

/// `count` distinct node ids from [0, limit), in random order.
std::vector<NodeId> random_nodes(Rng& rng, int count, int limit) {
  std::vector<NodeId> pool(static_cast<std::size_t>(limit));
  std::iota(pool.begin(), pool.end(), 0);
  for (int k = 0; k < count; ++k)
    std::swap(pool[static_cast<std::size_t>(k)],
              pool[static_cast<std::size_t>(rng.uniform_int(k, limit - 1))]);
  pool.resize(static_cast<std::size_t>(count));
  return pool;
}

/// A random byte volume of one of the classes the oracles cover: 0-3,
/// below 1, multiples of p * q, powers of two and reals up to 1e12.
Bytes random_volume(Rng& rng, int p, int q) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return static_cast<Bytes>(rng.uniform_int(0, 3));
    case 1:
      return rng.uniform(0.0, 1.0);
    case 2:
      return static_cast<Bytes>(rng.uniform_int(1, 1000000)) * p * q;
    case 3:
      return std::ldexp(1.0, static_cast<int>(rng.uniform_int(-20, 40)));
    default:
      return rng.uniform(0.0, 1e12);
  }
}

// The candidate walk visits only the rank pairs that meet in exact
// arithmetic, zero-width boundary pairs included; it must emit what
// the p x q scan emits, bit for bit and in the same order, on disjoint,
// partly shared and permuted-identical node sets.
TEST(Redistribution, CandidateWalkMatchesFullScanBitwise) {
  Rng rng(0xCA9D1DA7u);
  RedistPlanner planner;  // one planner: its scratch is reused throughout
  int mismatches = 0;
  std::string first_mismatch;
  for (int instance = 0; instance < 20000; ++instance) {
    // Half the draws small, where every rank pair is a boundary case.
    const int hi = rng.bernoulli(0.5) ? 12 : 130;
    const int p = static_cast<int>(rng.uniform_int(1, hi));
    int q = static_cast<int>(rng.uniform_int(1, hi));
    std::vector<NodeId> senders = random_nodes(rng, p, 2 * 130);
    std::vector<NodeId> receivers;
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // disjoint: receivers from ids no sender uses
        receivers = random_nodes(rng, q, 2 * 130);
        for (NodeId& n : receivers) n += 2 * 130;
        break;
      }
      case 1: {  // partly shared
        const std::vector<NodeId> pool = random_nodes(rng, 2 * 130, 2 * 130);
        std::set<NodeId> taken;
        const int shared = static_cast<int>(rng.uniform_int(1, std::min(p, q)));
        for (int k = 0; k < shared; ++k)
          taken.insert(senders[static_cast<std::size_t>(
              rng.uniform_int(0, p - 1))]);
        receivers.assign(taken.begin(), taken.end());
        for (NodeId n : pool) {
          if (static_cast<int>(receivers.size()) == q) break;
          if (!taken.count(n)) receivers.push_back(n);
        }
        for (int k = q - 1; k > 0; --k)
          std::swap(receivers[static_cast<std::size_t>(k)],
                    receivers[static_cast<std::size_t>(rng.uniform_int(0, k))]);
        break;
      }
      default: {  // the senders' own set, permuted
        q = p;
        receivers = senders;
        for (int k = q - 1; k > 0; --k)
          std::swap(receivers[static_cast<std::size_t>(k)],
                    receivers[static_cast<std::size_t>(rng.uniform_int(0, k))]);
      }
    }
    const bool maximize = rng.bernoulli(0.7);
    const Bytes volume = random_volume(rng, p, q);
    const RefPlan want = full_scan_plan(volume, senders, receivers, maximize);
    const bool same =
        same_plan_bits(Redistribution::plan(volume, senders, receivers,
                                            maximize),
                       want) &&
        same_plan_bits(planner.plan(volume, senders, receivers, maximize),
                       want);
    if (!same && mismatches++ == 0)
      first_mismatch = "instance " + std::to_string(instance) + ": p=" +
                       std::to_string(p) + " q=" + std::to_string(q) +
                       " volume=" + std::to_string(volume) +
                       " maximize=" + std::to_string(maximize);
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
}

/// Reference estimate: per-link loads in a std::map, built from one
/// route vector per transfer.
Seconds map_reference_estimate(const Cluster& cluster,
                               const Redistribution& r) {
  if (r.transfers().empty()) return 0;
  std::map<LinkId, Bytes> load;
  Seconds max_latency = 0;
  for (const Transfer& t : r.transfers()) {
    Seconds latency = 0;
    for (LinkId l : cluster.route(t.src, t.dst)) {
      load[l] += t.bytes;
      latency += cluster.link(l).latency;
    }
    max_latency = std::max(max_latency, latency);
  }
  Seconds serial = 0;
  for (const auto& [link, bytes] : load)
    serial = std::max(serial, bytes / cluster.link(link).bandwidth);
  return max_latency + serial;
}

// grillon is one flat switch; grelon's cabinets add shared uplinks, so
// cross-cabinet routes load four links per transfer.
TEST(Estimate, FlatLoadsMatchMapReferenceBitwise) {
  Rng rng(0xE57A7Eu);
  for (const Cluster& cluster : {grid5000::grillon(), grid5000::grelon()}) {
    int mismatches = 0;
    for (int instance = 0; instance < 3000; ++instance) {
      const int n = cluster.num_nodes();
      const int p =
          static_cast<int>(rng.uniform_int(1, rng.bernoulli(0.5) ? 8 : n));
      const int q =
          static_cast<int>(rng.uniform_int(1, rng.bernoulli(0.5) ? 8 : n));
      const auto senders = random_nodes(rng, p, n);
      const auto receivers = random_nodes(rng, q, n);
      const Redistribution r = Redistribution::plan(
          random_volume(rng, p, q), senders, receivers, rng.bernoulli(0.7));
      if (bits(estimate_redistribution_time(cluster, r)) !=
          bits(map_reference_estimate(cluster, r)))
        ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << cluster.name();
  }
}

}  // namespace
}  // namespace rats
