#include "redist/estimate.hpp"

#include <algorithm>

namespace rats {

Seconds estimate_redistribution_time(const Cluster& cluster,
                                     const Redistribution& r) {
  if (r.transfers().empty()) return 0;

  // Per-link load, indexed by link id (NIC up/down per node, cabinet
  // up/down per cabinet on hierarchical clusters), summed in transfer
  // order.
  std::vector<Bytes> load(static_cast<std::size_t>(cluster.num_links()), 0.0);
  Seconds max_latency = 0;
  for (const Transfer& t : r.transfers()) {
    cluster.for_each_route_link(t.src, t.dst, [&](LinkId l) {
      load[static_cast<std::size_t>(l)] += t.bytes;
    });
    max_latency = std::max(max_latency, cluster.route_latency(t.src, t.dst));
  }
  Seconds serial = 0;
  for (LinkId l = 0; l < cluster.num_links(); ++l) {
    const Bytes bytes = load[static_cast<std::size_t>(l)];
    if (bytes > 0) serial = std::max(serial, bytes / cluster.link(l).bandwidth);
  }
  return max_latency + serial;
}

Seconds estimate_redistribution_time(const Cluster& cluster, Bytes total_bytes,
                                     const std::vector<NodeId>& senders,
                                     const std::vector<NodeId>& receivers) {
  return estimate_redistribution_time(
      cluster, Redistribution::plan(total_bytes, senders, receivers));
}

}  // namespace rats
