// Runtime message transport over the static topology.
//
// Bandwidth model (paper Section 2.1): each link's capacity is statically
// divided among its attached senders, and within a sender's share among
// traffic classes. The per-(link, sender, class) "guardian" is the MAC-level
// babbling-idiot protection: it is enforced by (simulated) hardware, so even
// a fully compromised node can neither exceed its share nor starve others —
// it can only waste its own allocation. Guardian queues are bounded; traffic
// beyond the bound is dropped and counted.
//
// Multi-hop routes are store-and-forward through gateway nodes; a downed or
// excluded relay drops the packet (this is exactly the "state stranded behind
// node Y" hazard the paper's planner lookahead must avoid).
//
// Packets are freelist-pooled: a hop forwards the same pooled object through
// the event queue instead of copying the packet into each hop's closure, and
// the pool recycles it on delivery or drop. Payload objects are allocated
// from a shared BlockPool (see MakePooled) by whoever builds them.
//
// Sharding: the simulator runs shard windows one after another on one
// thread, so the transport keeps a single copy of its state. Guardian
// timelines are keyed by (link, sender, class) and only ever advanced by
// the sender's own events or by the driver, so their values do not depend
// on the shard layout.
//
// Loss draws carry no state at all: each hop's draw is a pure hash of
// (seed, link, message id, hop index). Message ids are per-sender sequence
// numbers assigned by the sender, so the draw for a given physical
// transmission is identical for every shard layout — lossy runs keep the
// any-shard-count byte-identity contract.

#ifndef BTR_SRC_NET_NETWORK_H_
#define BTR_SRC_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/net/routing.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace btr {

// Traffic classes with statically reserved bandwidth fractions.
enum class TrafficClass : int {
  kForeground = 0,  // workload dataflow messages
  kEvidence = 1,    // fault evidence distribution (paper Section 4.3)
  kControl = 2,     // mode-change coordination + state transfer
};
inline constexpr int kTrafficClassCount = 3;

const char* TrafficClassName(TrafficClass cls);

// Receiver-side dispatch tag so the delivery path is one virtual call + a
// switch instead of a chain of dynamic_pointer_casts per packet.
enum class PayloadKind : uint8_t {
  kOutputRecord,
  kEvidence,
  kHeartbeat,
  kStateRequest,
  kStateTransfer,
  kDissemBeacon,   // gossip install: version-announcing Trickle beacon
  kDissemRequest,  // gossip install: pull request (with resume offset)
  kDissemChunk,    // gossip install: one paced chunk of an artifact
  kOther,  // test payloads, baseline protocols
};

// Base class for message payloads carried through the network.
struct Payload {
  virtual ~Payload() = default;
  virtual PayloadKind kind() const { return PayloadKind::kOther; }
};
using PayloadPtr = std::shared_ptr<const Payload>;

struct Packet {
  MessageId id;
  NodeId src;
  NodeId dst;
  uint32_t size_bytes = 0;
  TrafficClass cls = TrafficClass::kForeground;
  PayloadPtr payload;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
  // The send-time route, copied once at Send: a routing swap while the
  // packet is in flight does not reroute it. Empty for loopback.
  Route route;
};

using DeliveryFn = std::function<void(const Packet&)>;

struct NetworkConfig {
  // Fraction of each sender's share reserved per class; must sum to <= 1.
  double foreground_fraction = 0.70;
  double evidence_fraction = 0.15;
  double control_fraction = 0.15;
  // Residual per-hop loss probability after FEC.
  double loss_probability = 0.0;
  // Maximum guardian backlog, expressed as transmission time; traffic that
  // would queue longer is dropped (bounded MAC queue).
  SimDuration max_guardian_backlog = Milliseconds(200);
  // Minimum on-the-wire frame size; smaller sends are padded up. 0 keeps
  // the raw sizes (legacy behavior). The sharded engine relies on a nonzero
  // floor: the conservative lookahead is the serialization time of the
  // smallest possible frame plus propagation, so BtrSystem pins this to the
  // smallest real protocol message (kDissemRequestBytes = 24) for every run
  // regardless of shard count — the floor must be layout-invariant.
  uint32_t min_frame_bytes = 0;
};

struct NetworkStats {
  uint64_t packets_sent = 0;
  uint64_t packets_delivered = 0;
  uint64_t packets_dropped_loss = 0;
  uint64_t packets_dropped_down = 0;
  uint64_t packets_dropped_unreachable = 0;
  uint64_t packets_dropped_backlog = 0;
  uint64_t packets_dropped_duty = 0;  // departure fell in a duty-cycle off phase
  uint64_t backlog_drops_by_class[kTrafficClassCount] = {0, 0, 0};
  uint64_t bytes_by_class[kTrafficClassCount] = {0, 0, 0};  // link-level bytes
  uint64_t total_link_bytes = 0;  // bytes * hops, i.e., actual medium usage
};

class Network {
 public:
  Network(Simulator* sim, const Topology* topo, NetworkConfig config);
  ~Network();

  // Installs the delivery callback for a node. One receiver per node.
  void SetReceiver(NodeId node, DeliveryFn fn);

  // Installs the routing table (a plan installs routes avoiding faulty nodes).
  void SetRouting(std::shared_ptr<const RoutingTable> routing);

  // Sends `payload` from src to dst; returns the message id, or an invalid id
  // if the destination is unreachable under current routing.
  MessageId Send(NodeId src, NodeId dst, uint32_t size_bytes, TrafficClass cls,
                 PayloadPtr payload);

  // Marks a node up/down. Downed nodes neither receive nor relay.
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  // A Byzantine relay that silently drops traffic it should forward (its own
  // sends and receives still work). Models omission faults on gateways.
  void SetRelayDrop(NodeId node, bool drop);

  // Expected serialization time of `size_bytes` for `sender` on `link` in
  // class `cls` (used by planners to budget communication).
  SimDuration SerializationTime(LinkId link, NodeId sender, TrafficClass cls,
                                uint32_t size_bytes) const;

  const NetworkStats& stats() const { return stats_; }

  const Topology& topology() const { return *topo_; }

 private:
  // 64-bit guardian key: 24-bit link | 24-bit sender | class.
  static uint64_t GuardianKey(LinkId link, NodeId sender, TrafficClass cls) {
    return (static_cast<uint64_t>(link.value()) << 32) |
           (static_cast<uint64_t>(sender.value()) << 8) | static_cast<uint64_t>(cls);
  }

  double ClassFraction(TrafficClass cls) const;

  // SerializationTime with the result memoized per (link, class, size):
  // the hot path sends the same few message sizes on the same links every
  // period, and the floating-point division is measurable there. Values
  // are computed by the exact public formula, so timing is unchanged.
  SimDuration CachedSerializationTime(LinkId link, NodeId sender, TrafficClass cls,
                                      uint32_t size_bytes) {
    const uint64_t key = (static_cast<uint64_t>(link.value()) << 40) |
                         (static_cast<uint64_t>(cls) << 36) | size_bytes;
    SimDuration& tx = serialization_cache_[key];
    if (tx == 0) {
      tx = SerializationTime(link, sender, cls, size_bytes);  // always >= 1
    }
    return tx;
  }

  Packet* AcquirePacket();
  void ReleasePacket(Packet* packet);

  void ForwardHop(Packet* packet, size_t hop_index);
  void Deliver(Packet* packet);

  Simulator* sim_;
  const Topology* topo_;
  NetworkConfig config_;
  std::shared_ptr<const RoutingTable> routing_;
  std::vector<DeliveryFn> receivers_;
  std::vector<bool> node_down_;
  std::vector<bool> relay_drop_;
  FlatMap64<SimTime> guardian_next_free_;
  FlatMap64<SimDuration> serialization_cache_;
  NetworkStats stats_;
  // Freelist-pooled in-flight packets.
  std::vector<std::unique_ptr<Packet>> packet_blocks_;
  std::vector<Packet*> packet_free_;
  std::vector<uint32_t> next_message_;  // per-sender message counters
};

}  // namespace btr

#endif  // BTR_SRC_NET_NETWORK_H_
