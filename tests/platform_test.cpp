// Unit tests for the cluster platform model and the Grid'5000 presets.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "platform/grid5000.hpp"

namespace rats {
namespace {

TEST(Cluster, FlatClusterBasics) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  EXPECT_EQ(c.num_nodes(), 4);
  EXPECT_DOUBLE_EQ(c.node_speed(), 1e9);
  EXPECT_FALSE(c.hierarchical_topology());
  EXPECT_EQ(c.cabinets(), 1);
  EXPECT_EQ(c.num_links(), 8);  // up + down per node
}

TEST(Cluster, FlatRouteUsesTwoLinks) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  const auto route = c.route(0, 3);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(route[0], c.nic_up(0));
  EXPECT_EQ(route[1], c.nic_down(3));
}

TEST(Cluster, LoopbackRouteIsEmpty) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  EXPECT_TRUE(c.route(2, 2).empty());
  EXPECT_DOUBLE_EQ(c.route_latency(2, 2), 0.0);
}

TEST(Cluster, RouteLatencyIsSumOfLinkLatencies) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  EXPECT_DOUBLE_EQ(c.route_latency(0, 1), 2e-4);
}

TEST(Cluster, NicLinkIdsAreDistinctPerNode) {
  const Cluster c = Cluster::flat("test", 5, 1e9, 1e-4, 125e6);
  std::set<LinkId> ids;
  for (NodeId n = 0; n < 5; ++n) {
    ids.insert(c.nic_up(n));
    ids.insert(c.nic_down(n));
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST(Cluster, RejectsInvalidConstruction) {
  EXPECT_THROW(Cluster::flat("x", 0, 1e9, 1e-4, 125e6), Error);
  EXPECT_THROW(Cluster::flat("x", 4, 0, 1e-4, 125e6), Error);
  EXPECT_THROW(Cluster::flat("x", 4, 1e9, 1e-4, 0), Error);
}

TEST(Cluster, RejectsOutOfRangeNodes) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  EXPECT_THROW(c.route(0, 4), Error);
  EXPECT_THROW(c.nic_up(-1), Error);
  EXPECT_THROW((void)c.link(99), Error);
}

TEST(Cluster, HierarchicalCabinets) {
  const Cluster c = Cluster::hierarchical("h", 3, 4, 1e9, 1e-4, 125e6,
                                          1e-4, 125e6);
  EXPECT_EQ(c.num_nodes(), 12);
  EXPECT_TRUE(c.hierarchical_topology());
  EXPECT_EQ(c.cabinets(), 3);
  EXPECT_EQ(c.cabinet_of(0), 0);
  EXPECT_EQ(c.cabinet_of(3), 0);
  EXPECT_EQ(c.cabinet_of(4), 1);
  EXPECT_EQ(c.cabinet_of(11), 2);
  // 24 NIC links + 6 cabinet links
  EXPECT_EQ(c.num_links(), 30);
}

TEST(Cluster, IntraCabinetRouteSkipsUplinks) {
  const Cluster c = Cluster::hierarchical("h", 3, 4, 1e9, 1e-4, 125e6,
                                          1e-4, 125e6);
  const auto route = c.route(0, 3);  // same cabinet
  EXPECT_EQ(route.size(), 2u);
}

TEST(Cluster, CrossCabinetRouteUsesUplinks) {
  const Cluster c = Cluster::hierarchical("h", 3, 4, 1e9, 1e-4, 125e6,
                                          1e-4, 125e6);
  const auto route = c.route(0, 4);  // cabinet 0 -> 1
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(route[0], c.nic_up(0));
  EXPECT_EQ(route[1], c.cabinet_up(0));
  EXPECT_EQ(route[2], c.cabinet_down(1));
  EXPECT_EQ(route[3], c.nic_down(4));
  EXPECT_DOUBLE_EQ(c.route_latency(0, 4), 4e-4);
}

TEST(Cluster, FlatClusterHasNoCabinetLinks) {
  const Cluster c = Cluster::flat("test", 4, 1e9, 1e-4, 125e6);
  EXPECT_THROW(c.cabinet_up(0), Error);
}

TEST(Cluster, TcpWindowDefaultAndOverride) {
  Cluster c = Cluster::flat("test", 2, 1e9, 1e-4, 125e6);
  EXPECT_DOUBLE_EQ(c.tcp_window(), 4.0 * 1024 * 1024);
  c.set_tcp_window(1e6);
  EXPECT_DOUBLE_EQ(c.tcp_window(), 1e6);
}

// ------------------------------------------------ Grid'5000 (Table II)

TEST(Grid5000, ChtiMatchesTableII) {
  const Cluster c = grid5000::chti();
  EXPECT_EQ(c.name(), "chti");
  EXPECT_EQ(c.num_nodes(), 20);
  EXPECT_DOUBLE_EQ(c.node_speed(), 4.311e9);
  EXPECT_FALSE(c.hierarchical_topology());
}

TEST(Grid5000, GrillonMatchesTableII) {
  const Cluster c = grid5000::grillon();
  EXPECT_EQ(c.num_nodes(), 47);
  EXPECT_DOUBLE_EQ(c.node_speed(), 3.379e9);
  EXPECT_FALSE(c.hierarchical_topology());
}

TEST(Grid5000, GrelonMatchesTableII) {
  const Cluster c = grid5000::grelon();
  EXPECT_EQ(c.num_nodes(), 120);
  EXPECT_DOUBLE_EQ(c.node_speed(), 3.185e9);
  EXPECT_TRUE(c.hierarchical_topology());
  EXPECT_EQ(c.cabinets(), 5);
  EXPECT_EQ(c.cabinet_of(119), 4);
}

TEST(Grid5000, GigabitLinksEverywhere) {
  for (const Cluster& c : grid5000::all()) {
    for (LinkId l = 0; l < c.num_links(); ++l) {
      EXPECT_DOUBLE_EQ(c.link(l).bandwidth, 125e6) << c.name();
      EXPECT_DOUBLE_EQ(c.link(l).latency, 100e-6) << c.name();
    }
  }
}

TEST(Grid5000, AllReturnsThreeClusters) {
  const auto clusters = grid5000::all();
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0].name(), "chti");
  EXPECT_EQ(clusters[1].name(), "grillon");
  EXPECT_EQ(clusters[2].name(), "grelon");
}

}  // namespace
}  // namespace rats
