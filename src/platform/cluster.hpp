// Cluster platform model (paper Section II-B).
//
// A cluster is a set of P homogeneous single-core nodes.  Each node has
// a private full-duplex network link (its NIC) to a switch; the
// bandwidth of that link is shared among the node's concurrent flows —
// this realizes the paper's bounded multi-port model.  Small clusters
// use one flat switch; larger clusters (grelon) group nodes into
// cabinets, each with its own switch, and cabinet switches connect to a
// root switch over shared uplinks, creating a hierarchical network with
// cross-cabinet contention.
//
// Switches themselves are ideal (infinite backplane); only NIC links
// and cabinet uplinks carry latency/bandwidth, matching the flow-level
// abstraction of SimGrid used in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rats {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = -1;

/// One simplex network resource with latency and shareable bandwidth.
struct LinkSpec {
  std::string name;
  Seconds latency{};
  Rate bandwidth{};  ///< bytes per second
};

/// A homogeneous cluster with a flat or hierarchical switched network.
class Cluster {
 public:
  /// Flat cluster: every node connects to one ideal switch through a
  /// private full-duplex link of the given latency/bandwidth.
  static Cluster flat(std::string name, int num_nodes, FlopRate node_speed,
                      Seconds link_latency, Rate link_bandwidth);

  /// Hierarchical cluster: `cabinets` groups of `nodes_per_cabinet`
  /// nodes.  Nodes connect to their cabinet switch via private links;
  /// cabinet switches connect to a root switch via full-duplex uplinks
  /// of the given characteristics, shared by all the cabinet's traffic.
  static Cluster hierarchical(std::string name, int cabinets,
                              int nodes_per_cabinet, FlopRate node_speed,
                              Seconds link_latency, Rate link_bandwidth,
                              Seconds uplink_latency, Rate uplink_bandwidth);

  /// Heterogeneous hierarchical cluster: cabinet `i` holds
  /// `cabinet_nodes[i]` nodes (sizes may differ).  Same link layout and
  /// uplink sharing as `hierarchical`; node ids are assigned cabinet by
  /// cabinet in order.
  static Cluster hierarchical_custom(std::string name,
                                     const std::vector<int>& cabinet_nodes,
                                     FlopRate node_speed,
                                     Seconds link_latency, Rate link_bandwidth,
                                     Seconds uplink_latency,
                                     Rate uplink_bandwidth);

  const std::string& name() const { return name_; }
  int num_nodes() const { return num_nodes_; }
  FlopRate node_speed() const { return node_speed_; }
  bool hierarchical_topology() const {
    return nodes_per_cabinet_ > 0 || !cabinet_start_.empty();
  }
  int cabinets() const;
  /// Cabinet index of `node` (0 for flat clusters).
  int cabinet_of(NodeId node) const;

  int num_links() const { return static_cast<int>(links_.size()); }
  const LinkSpec& link(LinkId id) const;

  /// Ordered link ids traversed by a flow from `src` to `dst`.
  /// Empty when src == dst (loopback is free, cf. self-communication).
  std::vector<LinkId> route(NodeId src, NodeId dst) const;

  /// Appends the route's link ids to `out` without allocating a
  /// temporary — the fluid network stores routes in one flat arena.
  void route_into(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

  /// Calls `f(link)` for each link id of the route, in route order,
  /// without materializing the route.
  template <typename F>
  void for_each_route_link(NodeId src, NodeId dst, F&& f) const {
    check_node(src);
    check_node(dst);
    if (src == dst) return;
    f(nic_up(src));
    if (hierarchical_topology()) {
      const int cs = cabinet_of(src);
      const int cd = cabinet_of(dst);
      if (cs != cd) {
        f(cabinet_up(cs));
        f(cabinet_down(cd));
      }
    }
    f(nic_down(dst));
  }

  /// One-way latency of the route (sum of link latencies in route
  /// order).
  Seconds route_latency(NodeId src, NodeId dst) const;

  /// Maximal TCP window size used for the empirical bandwidth bound
  /// beta' = min(beta, W_max / RTT) of the SimGrid model (Section IV-A).
  Bytes tcp_window() const { return tcp_window_; }
  void set_tcp_window(Bytes bytes) { tcp_window_ = bytes; }

  // Link-id helpers (also used by tests/benches to inspect contention).
  LinkId nic_up(NodeId node) const;
  LinkId nic_down(NodeId node) const;
  LinkId cabinet_up(int cabinet) const;
  LinkId cabinet_down(int cabinet) const;

 private:
  Cluster() = default;
  void check_node(NodeId node) const;

  std::string name_;
  int num_nodes_ = 0;
  FlopRate node_speed_ = 0;
  int nodes_per_cabinet_ = 0;  // 0 => flat or heterogeneous topology
  /// First node id of each cabinet (heterogeneous hierarchies only;
  /// uniform ones divide by nodes_per_cabinet_ instead).
  std::vector<NodeId> cabinet_start_;
  std::vector<LinkSpec> links_;
  Bytes tcp_window_ = 4.0 * 1024 * 1024;  // SimGrid's classic 4 MiB default
};

}  // namespace rats
