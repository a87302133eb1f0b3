// Shortest-path routing over the topology.
//
// Routes are computed once (statically) per topology + down-node set, which
// matches the paper's static-plan philosophy: a plan implies fixed routes,
// and a mode change installs routes that avoid the faulty nodes.
//
// Layout: the table keeps, per source, the shortest-path tree Dijkstra
// computes, as two dense n*n row-major matrices:
//   - via_:  for (src, dst), the last hop of the src->dst route (the tree
//            edge into dst: its sender and link);
//   - hops_: the route's hop count (0 when dst == src or unreachable).
// That is O(n^2) memory (12 bytes per pair) instead of O(n^3) for
// materialized routes. A route is never stored: it is walked backward from
// dst through via_ until src, on demand. Every prefix of a route is itself
// the route to that prefix's last receiver, so the tree holds every route.
//
// The table holds no pointer to the Topology it was built from: an edit can
// replace the topology while a loaded strategy still holds the table, so
// queries that need link specs take the topology as an argument.

#ifndef BTR_SRC_NET_ROUTING_H_
#define BTR_SRC_NET_ROUTING_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/net/topology.h"

namespace btr {

struct Hop {
  NodeId sender;  // who transmits on this hop
  LinkId link;
  NodeId receiver;
};

using Route = std::vector<Hop>;

class RoutingTable {
 public:
  // Computes all-pairs routes avoiding nodes in `excluded` as relays.
  // Excluded nodes may still be route endpoints (messages to/from them).
  RoutingTable(const Topology& topo, const std::vector<NodeId>& excluded = {});

  // Route from src to dst, walked from the tree; empty if unreachable or
  // src == dst.
  Route RouteBetween(NodeId src, NodeId dst) const;

  // As RouteBetween, into `*out` (reusing its capacity).
  void RouteInto(NodeId src, NodeId dst, Route* out) const;

  bool Reachable(NodeId src, NodeId dst) const {
    return src == dst || HopCount(src, dst) != 0;
  }

  // Number of hops (0 means unreachable or same node).
  size_t HopCount(NodeId src, NodeId dst) const {
    if (src.value() >= n_ || dst.value() >= n_) {
      return 0;  // also rejects invalid ids
    }
    return hops_[Index(src, dst)];
  }

  // Last hop of the src->dst route. Requires HopCount(src, dst) > 0.
  Hop LastHop(NodeId src, NodeId dst) const {
    const TreeEdge& e = via_[Index(src, dst)];
    return Hop{e.sender, e.link, dst};
  }

  // Calls fn(hop) for every hop of the src->dst route, last hop first.
  // Walks the tree without materializing the route.
  template <typename Fn>
  void ForEachHopReversed(NodeId src, NodeId dst, Fn&& fn) const {
    if (HopCount(src, dst) == 0) {
      return;
    }
    for (NodeId cur = dst; cur != src;) {
      const Hop hop = LastHop(src, cur);
      fn(hop);
      cur = hop.sender;
    }
  }

  // Sum of propagation delays along the route over `topo`'s link specs.
  SimDuration PathPropagation(const Topology& topo, NodeId src, NodeId dst) const;

  // True if `relay` appears as an intermediate node on the src->dst route.
  bool RouteUsesRelay(NodeId src, NodeId dst, NodeId relay) const;

  // True if any route in the table traverses `link` (every route hop is
  // some tree edge, so this scans tree edges). Incremental replanning uses
  // this to decide whether a re-measured link can affect a mode's latency
  // budgets at all.
  //
  // (Deliberately no operator==: raw hop comparison is wrong across any
  // topology edit that renumbers links; cross-edit route comparison needs
  // an id translation — see RoutesEquivalent in strategy_builder.cc.)
  bool UsesLink(LinkId link) const;

 private:
  struct TreeEdge {
    NodeId sender;
    LinkId link;
  };

  size_t Index(NodeId src, NodeId dst) const { return src.value() * n_ + dst.value(); }

  size_t n_;
  std::vector<TreeEdge> via_;  // n*n, row-major: last hop into dst from src
  std::vector<uint32_t> hops_;  // n*n, row-major
};

}  // namespace btr

#endif  // BTR_SRC_NET_ROUTING_H_
