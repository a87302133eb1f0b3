#include "src/net/routing.h"

#include <limits>
#include <queue>

namespace btr {

RoutingTable::RoutingTable(const Topology& topo, const std::vector<NodeId>& excluded)
    : n_(topo.node_count()), via_(n_ * n_), hops_(n_ * n_, 0) {
  std::vector<bool> is_excluded(n_, false);
  for (NodeId x : excluded) {
    if (x.valid() && x.value() < n_) {
      is_excluded[x.value()] = true;
    }
  }

  // Dijkstra from every source over (propagation + per-hop serialization
  // epsilon) edge weights; ties broken by node id for determinism.
  constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<int64_t> dist(n_);
  std::vector<uint32_t> settled;  // settle order: a tree parent precedes its children
  settled.reserve(n_);
  for (size_t s = 0; s < n_; ++s) {
    TreeEdge* via = &via_[s * n_];  // tree edge taken to reach node i
    uint32_t* hops = &hops_[s * n_];
    dist.assign(n_, kInf);
    settled.clear();
    using QueueEntry = std::pair<int64_t, uint32_t>;  // (dist, node)
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
    dist[s] = 0;
    pq.push({0, static_cast<uint32_t>(s)});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) {
        continue;
      }
      settled.push_back(u);
      const NodeId nu(u);
      // A relay (non-source intermediate) must not be excluded.
      if (u != s && is_excluded[u]) {
        continue;  // can terminate at u but not extend through it
      }
      for (LinkId l : topo.LinksAt(nu)) {
        const LinkSpec& spec = topo.link(l);
        // Cost: propagation plus a small constant per hop so that fewer hops
        // win among equal-propagation paths.
        const int64_t w = spec.propagation + 1000;
        for (NodeId v : spec.endpoints) {
          if (v == nu) {
            continue;
          }
          if (d + w < dist[v.value()]) {
            dist[v.value()] = d + w;
            via[v.value()] = TreeEdge{nu, l};
            pq.push({dist[v.value()], v.value()});
          }
        }
      }
    }
    // Every edge weight is positive, so a node's tree parent settled
    // strictly before it.
    for (size_t i = 1; i < settled.size(); ++i) {
      const uint32_t t = settled[i];
      hops[t] = hops[via[t].sender.value()] + 1;
    }
  }
}

void RoutingTable::RouteInto(NodeId src, NodeId dst, Route* out) const {
  const size_t count = HopCount(src, dst);
  out->resize(count);
  NodeId cur = dst;
  for (size_t i = count; i > 0; --i) {
    const Hop hop = LastHop(src, cur);
    (*out)[i - 1] = hop;
    cur = hop.sender;
  }
}

Route RoutingTable::RouteBetween(NodeId src, NodeId dst) const {
  Route route;
  RouteInto(src, dst, &route);
  return route;
}

SimDuration RoutingTable::PathPropagation(const Topology& topo, NodeId src, NodeId dst) const {
  SimDuration total = 0;
  ForEachHopReversed(src, dst, [&](const Hop& hop) { total += topo.link(hop.link).propagation; });
  return total;
}

bool RoutingTable::UsesLink(LinkId link) const {
  for (size_t i = 0; i < via_.size(); ++i) {
    if (hops_[i] != 0 && via_[i].link == link) {
      return true;
    }
  }
  return false;
}

bool RoutingTable::RouteUsesRelay(NodeId src, NodeId dst, NodeId relay) const {
  bool used = false;
  ForEachHopReversed(src, dst, [&](const Hop& hop) {
    // Every sender but the source is an intermediate node.
    if (hop.sender == relay && hop.sender != src) {
      used = true;
    }
  });
  return used;
}

}  // namespace btr
