// Unit tests for topology, routing, and the network runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <string>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/net/routing.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

struct TestPayload : Payload {
  int value = 0;
};

TEST(Topology, SharedBusConnectsEverything) {
  Topology t = Topology::SharedBus(5, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.Neighbors(NodeId(0)).size(), 4u);
}

TEST(Topology, RingHasTwoNeighbors) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.link_count(), 6u);
  for (uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(t.Neighbors(NodeId(i)).size(), 2u);
  }
  EXPECT_TRUE(t.Validate().ok());
}

TEST(Topology, MeshIsFullyConnected) {
  Topology t = Topology::Mesh(4, 1'000'000, Microseconds(1));
  EXPECT_EQ(t.link_count(), 6u);  // C(4,2)
  EXPECT_EQ(t.Neighbors(NodeId(2)).size(), 3u);
}

TEST(Topology, DualBusGatewaysBridge) {
  Topology t = Topology::DualBus(6, 3, 1'000'000, Microseconds(1));
  EXPECT_TRUE(t.Validate().ok());
  // Gateways (node 2 and node 3) sit on both buses.
  EXPECT_EQ(t.LinksAt(NodeId(2)).size(), 2u);
  EXPECT_EQ(t.LinksAt(NodeId(3)).size(), 2u);
  EXPECT_EQ(t.LinksAt(NodeId(0)).size(), 1u);
}

TEST(Topology, ValidateRejectsIsolatedNode) {
  Topology t;
  t.AddNodes(3);
  t.AddLink({NodeId(0), NodeId(1)}, 1000, 0);
  EXPECT_FALSE(t.Validate().ok());
}

TEST(Routing, DirectRouteOnSharedBus) {
  Topology t = Topology::SharedBus(4, 1'000'000, Microseconds(1));
  RoutingTable routes(t);
  EXPECT_EQ(routes.HopCount(NodeId(0), NodeId(3)), 1u);
  EXPECT_TRUE(routes.Reachable(NodeId(1), NodeId(2)));
}

TEST(Routing, MultiHopOnRing) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  RoutingTable routes(t);
  // 0 -> 3 needs 3 hops either way around the ring.
  EXPECT_EQ(routes.HopCount(NodeId(0), NodeId(3)), 3u);
  const Route& r = routes.RouteBetween(NodeId(0), NodeId(3));
  EXPECT_EQ(r.front().sender, NodeId(0));
  EXPECT_EQ(r.back().receiver, NodeId(3));
  // Hops chain: receiver of hop i is sender of hop i+1.
  for (size_t i = 0; i + 1 < r.size(); ++i) {
    EXPECT_EQ(r[i].receiver, r[i + 1].sender);
  }
}

TEST(Routing, ExcludedRelayForcesDetour) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(1));
  RoutingTable normal(t);
  // Route 0->2 normally goes through 1.
  EXPECT_TRUE(normal.RouteUsesRelay(NodeId(0), NodeId(2), NodeId(1)));
  RoutingTable detour(t, {NodeId(1)});
  EXPECT_TRUE(detour.Reachable(NodeId(0), NodeId(2)));
  EXPECT_FALSE(detour.RouteUsesRelay(NodeId(0), NodeId(2), NodeId(1)));
  EXPECT_EQ(detour.HopCount(NodeId(0), NodeId(2)), 4u);  // the long way round
}

TEST(Routing, ExcludedEndpointStillReachable) {
  Topology t = Topology::Ring(4, 1'000'000, Microseconds(1));
  RoutingTable routes(t, {NodeId(2)});
  // 2 is excluded as a relay but can still terminate routes.
  EXPECT_TRUE(routes.Reachable(NodeId(1), NodeId(2)));
  EXPECT_TRUE(routes.Reachable(NodeId(3), NodeId(2)));
}

TEST(Routing, PathPropagationSums) {
  Topology t = Topology::Ring(6, 1'000'000, Microseconds(7));
  RoutingTable routes(t);
  EXPECT_EQ(routes.PathPropagation(t, NodeId(0), NodeId(3)), 3 * Microseconds(7));
}

// Reference: all-pairs Dijkstra that materializes every route, with the
// same edge weights, relaxation order and exclusion rule the table uses.
// Returns n*n routes, row-major.
std::vector<Route> MaterializedRoutes(const Topology& topo, const std::vector<NodeId>& excluded) {
  const size_t n = topo.node_count();
  std::vector<Route> routes(n * n);
  std::vector<bool> is_excluded(n, false);
  for (NodeId x : excluded) {
    is_excluded[x.value()] = true;
  }
  for (size_t s = 0; s < n; ++s) {
    constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
    std::vector<int64_t> dist(n, kInf);
    std::vector<Hop> via(n);
    using QueueEntry = std::pair<int64_t, uint32_t>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> pq;
    dist[s] = 0;
    pq.push({0, static_cast<uint32_t>(s)});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u] || (u != s && is_excluded[u])) {
        continue;
      }
      const NodeId nu(u);
      for (LinkId l : topo.LinksAt(nu)) {
        const LinkSpec& spec = topo.link(l);
        const int64_t w = spec.propagation + 1000;
        for (NodeId v : spec.endpoints) {
          if (v != nu && d + w < dist[v.value()]) {
            dist[v.value()] = d + w;
            via[v.value()] = Hop{nu, l, v};
            pq.push({dist[v.value()], v.value()});
          }
        }
      }
    }
    for (size_t t = 0; t < n; ++t) {
      if (t == s || dist[t] >= kInf) {
        continue;
      }
      Route& route = routes[s * n + t];
      for (uint32_t cur = static_cast<uint32_t>(t); cur != s; cur = via[cur].sender.value()) {
        route.push_back(via[cur]);
      }
      std::reverse(route.begin(), route.end());
    }
  }
  return routes;
}

// Every query on the tree-backed table agrees with the materialized
// reference: routes hop for hop, hop counts, reachability, relays, links
// and propagation sums.
void ExpectTableMatchesReference(const Topology& topo, const std::vector<NodeId>& excluded,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  const size_t n = topo.node_count();
  const RoutingTable table(topo, excluded);
  const std::vector<Route> ref = MaterializedRoutes(topo, excluded);
  std::vector<bool> link_used(topo.link_count(), false);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t d = 0; d < n; ++d) {
      const NodeId src(s);
      const NodeId dst(d);
      const Route& expected = ref[s * n + d];
      const Route got = table.RouteBetween(src, dst);
      ASSERT_EQ(got.size(), expected.size()) << s << "->" << d;
      SimDuration propagation = 0;
      for (size_t h = 0; h < got.size(); ++h) {
        ASSERT_EQ(got[h].sender, expected[h].sender) << s << "->" << d << " hop " << h;
        ASSERT_EQ(got[h].link, expected[h].link) << s << "->" << d << " hop " << h;
        ASSERT_EQ(got[h].receiver, expected[h].receiver) << s << "->" << d << " hop " << h;
        link_used[expected[h].link.value()] = true;
        propagation += topo.link(expected[h].link).propagation;
      }
      EXPECT_EQ(table.HopCount(src, dst), expected.size());
      EXPECT_EQ(table.Reachable(src, dst), s == d || !expected.empty());
      EXPECT_EQ(table.PathPropagation(topo, src, dst), propagation);
      for (uint32_t r = 0; r < n; ++r) {
        bool relays = false;
        for (size_t h = 0; h + 1 < expected.size(); ++h) {
          relays = relays || expected[h].receiver == NodeId(r);
        }
        EXPECT_EQ(table.RouteUsesRelay(src, dst, NodeId(r)), relays)
            << s << "->" << d << " via " << r;
      }
    }
  }
  for (uint32_t l = 0; l < topo.link_count(); ++l) {
    EXPECT_EQ(table.UsesLink(LinkId(l)), link_used[l]) << "link " << l;
  }
}

TEST(Routing, TreeRoutesMatchMaterializedDijkstra) {
  const char* kinds[] = {"avionics", "scada", "convoy", "convoy-mobile", "lossy-mesh", "random"};
  for (const char* kind : kinds) {
    for (size_t nodes : {6u, 16u}) {
      StatusOr<Scenario> scenario = MakeNamedScenario(kind, nodes, 7);
      ASSERT_TRUE(scenario.ok()) << kind;
      const Topology& topo = scenario->topology;
      const size_t n = topo.node_count();
      const std::string base = std::string(kind) + " nodes=" + std::to_string(nodes);
      ExpectTableMatchesReference(topo, {}, base + " excluded={}");
      for (uint32_t x = 0; x < n; ++x) {
        ExpectTableMatchesReference(topo, {NodeId(x)},
                                    base + " excluded={" + std::to_string(x) + "}");
      }
      Rng rng(nodes * 31 + n);
      for (int pair = 0; pair < 3; ++pair) {
        const uint32_t a = static_cast<uint32_t>(rng.NextBelow(n));
        const uint32_t b = static_cast<uint32_t>((a + 1 + rng.NextBelow(n - 1)) % n);
        ExpectTableMatchesReference(
            topo, {NodeId(a), NodeId(b)},
            base + " excluded={" + std::to_string(a) + "," + std::to_string(b) + "}");
      }
    }
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(Topology::SharedBus(4, 8'000'000, Microseconds(2))),
        sim_(1),
        net_(&sim_, &topo_, NetworkConfig{}) {}

  Topology topo_;
  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, DeliversPayloadToReceiver) {
  int received = 0;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) {
    auto payload = std::dynamic_pointer_cast<const TestPayload>(p.payload);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->value, 7);
    EXPECT_EQ(p.src, NodeId(0));
    ++received;
  });
  auto payload = std::make_shared<TestPayload>();
  payload->value = 7;
  net_.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground, payload);
  sim_.RunToCompletion();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net_.stats().packets_delivered, 1u);
}

TEST_F(NetworkTest, SerializationDelayMatchesBandwidthShare) {
  // 8 Mbps bus, 4 endpoints -> 2 Mbps per sender, 70% foreground -> 1.4 Mbps.
  SimTime delivered_at = -1;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) { delivered_at = p.delivered_at; });
  net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  // 1400 bytes * 8 / 1.4 Mbps = 8 ms, plus 2 us propagation.
  EXPECT_NEAR(static_cast<double>(delivered_at), 8e6 + 2e3, 1e4);
}

TEST_F(NetworkTest, GuardianSerializesSameSenderSameClass) {
  std::vector<SimTime> arrivals;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) { arrivals.push_back(p.delivered_at); });
  for (int i = 0; i < 3; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  sim_.RunToCompletion();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each takes ~8ms of serialization; arrivals are spaced accordingly.
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 8e6, 1e4);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]), 8e6, 1e4);
}

TEST_F(NetworkTest, ClassesDoNotBlockEachOther) {
  SimTime evidence_arrival = -1;
  net_.SetReceiver(NodeId(1), [&](const Packet& p) {
    if (p.cls == TrafficClass::kEvidence) {
      evidence_arrival = p.delivered_at;
    }
  });
  // Saturate the foreground guardian first.
  for (int i = 0; i < 10; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  net_.Send(NodeId(0), NodeId(1), 150, TrafficClass::kEvidence,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  // Evidence rides its own reserved slice: 150B * 8 / (2 Mbps * 0.15) = 4 ms.
  EXPECT_GE(evidence_arrival, 0);
  EXPECT_LT(evidence_arrival, Milliseconds(6));
}

TEST_F(NetworkTest, BabblerOnlyHurtsItself) {
  // Node 0 floods; node 2's traffic to node 3 is unaffected because the MAC
  // allocation is static per sender.
  SimTime honest_arrival = -1;
  net_.SetReceiver(NodeId(3), [&](const Packet& p) { honest_arrival = p.delivered_at; });
  net_.SetReceiver(NodeId(1), [](const Packet&) {});
  for (int i = 0; i < 200; ++i) {
    net_.Send(NodeId(0), NodeId(1), 1400, TrafficClass::kForeground,
              std::make_shared<TestPayload>());
  }
  net_.Send(NodeId(2), NodeId(3), 1400, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_NEAR(static_cast<double>(honest_arrival), 8e6 + 2e3, 1e4);
  EXPECT_GT(net_.stats().packets_dropped_backlog, 0u);  // babbler's own queue
}

TEST_F(NetworkTest, DownNodeDoesNotReceive) {
  int received = 0;
  net_.SetReceiver(NodeId(1), [&](const Packet&) { ++received; });
  net_.SetNodeDown(NodeId(1), true);
  net_.Send(NodeId(0), NodeId(1), 100, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net_.stats().packets_dropped_down, 1u);
}

TEST_F(NetworkTest, LoopbackIsFree) {
  SimTime arrival = -1;
  net_.SetReceiver(NodeId(0), [&](const Packet& p) { arrival = p.delivered_at; });
  net_.Send(NodeId(0), NodeId(0), 100000, TrafficClass::kForeground,
            std::make_shared<TestPayload>());
  sim_.RunToCompletion();
  EXPECT_EQ(arrival, 0);
  EXPECT_EQ(net_.stats().total_link_bytes, 0u);
}

TEST(NetworkMultiHop, RelayForwardsAndDownRelayDrops) {
  Topology topo = Topology::Ring(4, 8'000'000, Microseconds(2));
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  net.SetReceiver(NodeId(2), [&](const Packet&) { ++received; });

  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 1);

  // Now take the relay down; the packet must be dropped mid-route.
  auto routing = std::make_shared<RoutingTable>(topo);
  const Route& r = routing->RouteBetween(NodeId(0), NodeId(2));
  ASSERT_EQ(r.size(), 2u);
  net.SetNodeDown(r[0].receiver, true);
  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 1);
  EXPECT_GE(net.stats().packets_dropped_down, 1u);
}

TEST(NetworkMultiHop, RelayDropModelsByzantineGateway) {
  Topology topo = Topology::Ring(4, 8'000'000, Microseconds(2));
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  int received = 0;
  int relay_received = 0;
  net.SetReceiver(NodeId(2), [&](const Packet&) { ++received; });
  net.SetReceiver(NodeId(1), [&](const Packet&) { ++relay_received; });

  auto routing = std::make_shared<RoutingTable>(topo);
  const NodeId relay = routing->RouteBetween(NodeId(0), NodeId(2))[0].receiver;
  net.SetRelayDrop(relay, true);
  // Relayed traffic dies...
  net.Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground,
           std::make_shared<TestPayload>());
  // ...but traffic addressed *to* the Byzantine relay still arrives.
  net.Send(NodeId(0), relay, 100, TrafficClass::kForeground, std::make_shared<TestPayload>());
  sim.RunToCompletion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(relay_received, 1);
}

TEST(NetworkLoss, LossyLinkDropsSomePackets) {
  Topology topo = Topology::SharedBus(2, 8'000'000, Microseconds(1));
  Simulator sim(7);
  NetworkConfig config;
  config.loss_probability = 0.5;
  Network net(&sim, &topo, config);
  int received = 0;
  net.SetReceiver(NodeId(1), [&](const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    net.Send(NodeId(0), NodeId(1), 10, TrafficClass::kForeground,
             std::make_shared<TestPayload>());
  }
  sim.RunToCompletion();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(received + static_cast<int>(net.stats().packets_dropped_loss), 200);
}

TEST(NetworkRouting, UnreachableDestinationCounts) {
  Topology topo;
  topo.AddNodes(3);
  topo.AddLink({NodeId(0), NodeId(1)}, 1'000'000, 0);
  topo.AddLink({NodeId(1), NodeId(2)}, 1'000'000, 0);
  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  // Exclude the only relay: 0 cannot reach 2.
  net.SetRouting(std::make_shared<RoutingTable>(topo, std::vector<NodeId>{NodeId(1)}));
  const MessageId id = net.Send(NodeId(0), NodeId(2), 10, TrafficClass::kForeground,
                                std::make_shared<TestPayload>());
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(net.stats().packets_dropped_unreachable, 1u);
}

TEST(NetworkRouting, InFlightPacketKeepsSendTimeRoute) {
  // On a 5-ring, 0->2 is two hops over one relay; without that relay it is
  // three hops the other way round.
  Topology topo = Topology::Ring(5, 8'000'000, Microseconds(2));
  const RoutingTable before(topo);
  const Route send_time_route = before.RouteBetween(NodeId(0), NodeId(2));
  ASSERT_EQ(send_time_route.size(), 2u);
  const NodeId relay = send_time_route[0].receiver;
  auto after = std::make_shared<RoutingTable>(topo, std::vector<NodeId>{relay});
  const Route new_route = after->RouteBetween(NodeId(0), NodeId(2));
  ASSERT_EQ(new_route.size(), 3u);

  struct Arrival {
    int value;
    SimTime at;
    Route route;
  };
  auto send = [](Network* net, int value) {
    auto payload = std::make_shared<TestPayload>();
    payload->value = value;
    return net->Send(NodeId(0), NodeId(2), 100, TrafficClass::kForeground, payload).valid();
  };
  auto record = [](std::vector<Arrival>* out) {
    return [out](const Packet& p) {
      out->push_back({static_cast<const TestPayload&>(*p.payload).value, p.delivered_at, p.route});
    };
  };

  // Reference: the same send with no routing swap.
  std::vector<Arrival> undisturbed;
  {
    Simulator sim(1);
    Network net(&sim, &topo, NetworkConfig{});
    net.SetReceiver(NodeId(2), record(&undisturbed));
    ASSERT_TRUE(send(&net, 1));
    sim.RunToCompletion();
    ASSERT_EQ(undisturbed.size(), 1u);
  }

  Simulator sim(1);
  Network net(&sim, &topo, NetworkConfig{});
  std::vector<Arrival> arrivals;
  net.SetReceiver(NodeId(2), record(&arrivals));
  ASSERT_TRUE(send(&net, 1));
  // One event: the packet reaches the relay and starts its second hop.
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(arrivals.empty());
  ASSERT_GT(sim.pending_events(), 0u);
  // Swap in routes that avoid the relay while the packet is mid-route.
  net.SetRouting(after);
  ASSERT_TRUE(send(&net, 2));
  sim.RunToCompletion();

  ASSERT_EQ(arrivals.size(), 2u);
  auto same_route = [](const Route& a, const Route& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const Hop& x, const Hop& y) {
      return x.sender == y.sender && x.link == y.link && x.receiver == y.receiver;
    });
  };
  for (const Arrival& a : arrivals) {
    if (a.value == 1) {
      // Finished over the relay, exactly as if nothing had changed.
      EXPECT_TRUE(same_route(a.route, send_time_route));
      EXPECT_EQ(a.at, undisturbed[0].at);
    } else {
      EXPECT_TRUE(same_route(a.route, new_route));  // the later send detours
    }
  }
  EXPECT_EQ(net.stats().packets_delivered, 2u);
  EXPECT_EQ(net.stats().total_link_bytes, (2u + 3u) * 100u);
}

}  // namespace
}  // namespace btr
