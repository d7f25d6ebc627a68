#include "platform/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rats {

// Link layout: ids [0, 2P) are per-node NIC links (even = up toward the
// switch, odd = down from the switch); for hierarchical clusters, ids
// [2P, 2P + 2C) are cabinet uplinks (even = cabinet->root, odd =
// root->cabinet).

Cluster Cluster::flat(std::string name, int num_nodes, FlopRate node_speed,
                      Seconds link_latency, Rate link_bandwidth) {
  RATS_REQUIRE(num_nodes > 0, "cluster needs at least one node");
  RATS_REQUIRE(node_speed > 0, "node speed must be positive");
  RATS_REQUIRE(link_bandwidth > 0, "link bandwidth must be positive");
  Cluster c;
  c.name_ = std::move(name);
  c.num_nodes_ = num_nodes;
  c.node_speed_ = node_speed;
  c.links_.reserve(static_cast<std::size_t>(2 * num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    c.links_.push_back(LinkSpec{"node" + std::to_string(n) + ".up",
                                link_latency, link_bandwidth});
    c.links_.push_back(LinkSpec{"node" + std::to_string(n) + ".down",
                                link_latency, link_bandwidth});
  }
  return c;
}

Cluster Cluster::hierarchical(std::string name, int cabinets,
                              int nodes_per_cabinet, FlopRate node_speed,
                              Seconds link_latency, Rate link_bandwidth,
                              Seconds uplink_latency, Rate uplink_bandwidth) {
  RATS_REQUIRE(cabinets > 0 && nodes_per_cabinet > 0,
               "hierarchical cluster needs cabinets and nodes");
  Cluster c = flat(std::move(name), cabinets * nodes_per_cabinet, node_speed,
                   link_latency, link_bandwidth);
  c.nodes_per_cabinet_ = nodes_per_cabinet;
  for (int cab = 0; cab < cabinets; ++cab) {
    c.links_.push_back(LinkSpec{"cabinet" + std::to_string(cab) + ".up",
                                uplink_latency, uplink_bandwidth});
    c.links_.push_back(LinkSpec{"cabinet" + std::to_string(cab) + ".down",
                                uplink_latency, uplink_bandwidth});
  }
  return c;
}

Cluster Cluster::hierarchical_custom(std::string name,
                                     const std::vector<int>& cabinet_nodes,
                                     FlopRate node_speed, Seconds link_latency,
                                     Rate link_bandwidth,
                                     Seconds uplink_latency,
                                     Rate uplink_bandwidth) {
  RATS_REQUIRE(!cabinet_nodes.empty(),
               "hierarchical cluster needs at least one cabinet");
  int total = 0;
  for (const int n : cabinet_nodes) {
    RATS_REQUIRE(n > 0, "every cabinet needs at least one node");
    total += n;
  }
  Cluster c = flat(std::move(name), total, node_speed, link_latency,
                   link_bandwidth);
  c.cabinet_start_.reserve(cabinet_nodes.size());
  NodeId start = 0;
  for (std::size_t cab = 0; cab < cabinet_nodes.size(); ++cab) {
    c.cabinet_start_.push_back(start);
    start += cabinet_nodes[cab];
    c.links_.push_back(LinkSpec{"cabinet" + std::to_string(cab) + ".up",
                                uplink_latency, uplink_bandwidth});
    c.links_.push_back(LinkSpec{"cabinet" + std::to_string(cab) + ".down",
                                uplink_latency, uplink_bandwidth});
  }
  return c;
}

int Cluster::cabinets() const {
  if (!cabinet_start_.empty()) return static_cast<int>(cabinet_start_.size());
  return nodes_per_cabinet_ > 0 ? num_nodes_ / nodes_per_cabinet_ : 1;
}

int Cluster::cabinet_of(NodeId node) const {
  check_node(node);
  if (!cabinet_start_.empty()) {
    // Last cabinet whose first node is <= node.
    const auto it = std::upper_bound(cabinet_start_.begin(),
                                     cabinet_start_.end(), node);
    return static_cast<int>(it - cabinet_start_.begin()) - 1;
  }
  return nodes_per_cabinet_ > 0 ? node / nodes_per_cabinet_ : 0;
}

const LinkSpec& Cluster::link(LinkId id) const {
  RATS_REQUIRE(id >= 0 && id < num_links(), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

LinkId Cluster::nic_up(NodeId node) const {
  check_node(node);
  return 2 * node;
}

LinkId Cluster::nic_down(NodeId node) const {
  check_node(node);
  return 2 * node + 1;
}

LinkId Cluster::cabinet_up(int cabinet) const {
  RATS_REQUIRE(hierarchical_topology(), "flat cluster has no cabinet links");
  RATS_REQUIRE(cabinet >= 0 && cabinet < cabinets(), "cabinet out of range");
  return 2 * num_nodes_ + 2 * cabinet;
}

LinkId Cluster::cabinet_down(int cabinet) const {
  return cabinet_up(cabinet) + 1;
}

std::vector<LinkId> Cluster::route(NodeId src, NodeId dst) const {
  std::vector<LinkId> path;
  route_into(src, dst, path);
  return path;
}

void Cluster::route_into(NodeId src, NodeId dst,
                         std::vector<LinkId>& out) const {
  for_each_route_link(src, dst, [&out](LinkId id) { out.push_back(id); });
}

Seconds Cluster::route_latency(NodeId src, NodeId dst) const {
  Seconds total = 0;
  for_each_route_link(src, dst,
                      [&](LinkId id) { total += link(id).latency; });
  return total;
}

void Cluster::check_node(NodeId node) const {
  RATS_REQUIRE(node >= 0 && node < num_nodes_, "node id out of range");
}

}  // namespace rats
