#include "src/net/network.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/log.h"

namespace btr {
namespace {

// Counter-free loss draw: a uniform [0,1) value hashed from the run seed
// and the transmission's layout-invariant identity (link, per-sender
// message id, hop index). No RNG stream means no per-shard state and no
// draw-order dependence, so lossy runs stay byte-identical for every shard
// count — the same contract the rest of the data plane keeps.
double LossUnit(uint64_t seed, LinkId link, MessageId id, uint32_t hop_index) {
  Hasher h(seed);
  h.Add(link.value()).Add(id.value()).Add(hop_index);
  return static_cast<double>(h.Digest() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* TrafficClassName(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kForeground:
      return "foreground";
    case TrafficClass::kEvidence:
      return "evidence";
    case TrafficClass::kControl:
      return "control";
  }
  return "?";
}

Network::Network(Simulator* sim, const Topology* topo, NetworkConfig config)
    : sim_(sim),
      topo_(topo),
      config_(config),
      receivers_(topo->node_count()),
      node_down_(topo->node_count(), false),
      relay_drop_(topo->node_count(), false),
      next_message_(topo->node_count()) {
  assert(config_.foreground_fraction + config_.evidence_fraction + config_.control_fraction <=
         1.0 + 1e-9);
  routing_ = std::make_shared<RoutingTable>(*topo);
}

Network::~Network() = default;

void Network::SetReceiver(NodeId node, DeliveryFn fn) {
  receivers_[node.value()] = std::move(fn);
}

void Network::SetRouting(std::shared_ptr<const RoutingTable> routing) {
  routing_ = std::move(routing);
}

double Network::ClassFraction(TrafficClass cls) const {
  switch (cls) {
    case TrafficClass::kForeground:
      return config_.foreground_fraction;
    case TrafficClass::kEvidence:
      return config_.evidence_fraction;
    case TrafficClass::kControl:
      return config_.control_fraction;
  }
  return 0.0;
}

SimDuration Network::SerializationTime(LinkId link, [[maybe_unused]] NodeId sender,
                                       TrafficClass cls, uint32_t size_bytes) const {
  const LinkSpec& spec = topo_->link(link);
  assert(topo_->Attaches(link, sender));
  // Equal static split among attached senders (MAC-enforced allocation).
  const double sender_share = 1.0 / static_cast<double>(spec.endpoints.size());
  const double bps = static_cast<double>(spec.bandwidth_bps) * sender_share * ClassFraction(cls);
  assert(bps > 0.0);
  const double seconds = static_cast<double>(size_bytes) * 8.0 / bps;
  return static_cast<SimDuration>(seconds * 1e9) + 1;
}

Packet* Network::AcquirePacket() {
  if (!packet_free_.empty()) {
    Packet* p = packet_free_.back();
    packet_free_.pop_back();
    return p;
  }
  packet_blocks_.push_back(std::make_unique<Packet>());
  return packet_blocks_.back().get();
}

void Network::ReleasePacket(Packet* packet) {
  packet->payload.reset();  // drop the payload reference promptly
  packet_free_.push_back(packet);
}

MessageId Network::Send(NodeId src, NodeId dst, uint32_t size_bytes, TrafficClass cls,
                        PayloadPtr payload) {
  assert(src.valid() && dst.valid());
  ++stats_.packets_sent;
  // Message ids are per-sender and carry the sender in the top bits; they
  // are diagnostics, never ordering.
  const MessageId id((src.value() << 20) | (next_message_[src.value()]++ & 0xFFFFF));
  if (size_bytes < config_.min_frame_bytes) {
    size_bytes = config_.min_frame_bytes;
  }

  const bool loopback = src == dst;
  if (!loopback && !routing_->Reachable(src, dst)) {
    ++stats_.packets_dropped_unreachable;
    return MessageId::Invalid();
  }
  // One init block for both paths: the pooled Packet is reused, so every
  // field must be (re)assigned here.
  Packet* p = AcquirePacket();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->size_bytes = size_bytes;
  p->cls = cls;
  p->payload = std::move(payload);
  p->sent_at = sim_->Now();
  routing_->RouteInto(src, dst, &p->route);  // empty for loopback
  if (loopback) {
    // Loopback: deliver immediately (no medium usage).
    sim_->After(0, [this, p]() { Deliver(p); });
  } else {
    ForwardHop(p, 0);
  }
  return id;
}

void Network::ForwardHop(Packet* packet, size_t hop_index) {
  const Route& route = packet->route;
  if (hop_index >= route.size()) {
    Deliver(packet);
    return;
  }
  const Hop& hop = route[hop_index];

  // A downed relay cannot transmit, and a Byzantine relay may refuse to.
  if (hop_index > 0 &&
      (node_down_[hop.sender.value()] || relay_drop_[hop.sender.value()])) {
    ++stats_.packets_dropped_down;
    ReleasePacket(packet);
    return;
  }

  SimTime& next_free = guardian_next_free_[GuardianKey(hop.link, hop.sender, packet->cls)];
  const SimTime now = sim_->Now();
  const SimTime depart = std::max(now, next_free);
  if (depart - now > config_.max_guardian_backlog) {
    ++stats_.packets_dropped_backlog;
    ++stats_.backlog_drops_by_class[static_cast<int>(packet->cls)];
    ReleasePacket(packet);
    return;
  }
  const LinkSpec& lspec = topo_->link(hop.link);
  // Duty-cycled radio: departures are only legal during the first duty_on
  // of each duty_period. The gate is a pure function of the departure
  // instant (which the sender's own guardian makes layout-invariant),
  // so heal or wake events elsewhere can never reopen an off window early.
  // Nothing is transmitted: the guardian does not advance and no bytes are
  // charged to the medium.
  if (lspec.duty_period > 0 && depart % lspec.duty_period >= lspec.duty_on) {
    ++stats_.packets_dropped_duty;
    ReleasePacket(packet);
    return;
  }
  const SimDuration tx =
      CachedSerializationTime(hop.link, hop.sender, packet->cls, packet->size_bytes);
  next_free = depart + tx;

  stats_.bytes_by_class[static_cast<int>(packet->cls)] += packet->size_bytes;
  stats_.total_link_bytes += packet->size_bytes;

  const SimTime arrival = depart + tx + lspec.propagation;
  // Global residual loss and the link's own loss model are independent
  // processes; combine them into one per-hop probability.
  const double loss_p =
      config_.loss_probability + lspec.loss - config_.loss_probability * lspec.loss;
  const bool lost =
      loss_p > 0.0 && LossUnit(sim_->seed(), hop.link, packet->id,
                               static_cast<uint32_t>(hop_index)) < loss_p;
  // Hop state is packed so the closure fits the event queue's inline
  // buffer; the receiver is resolved now (the packet's route is fixed at
  // Send, so the arrival-time lookup gave the same answer). The
  // arrival event is owned by the hop receiver, and the lookahead bound
  // holds for a cross-shard hop because arrival is at least
  // tx(min frame) + propagation after now.
  struct HopState {
    uint32_t next_hop;
    uint32_t receiver;
    bool lost;
  };
  const HopState hs{static_cast<uint32_t>(hop_index + 1), hop.receiver.value(), lost};
  sim_->AtActor(hs.receiver, arrival, [this, packet, hs]() {
    if (hs.lost) {
      ++stats_.packets_dropped_loss;
      ReleasePacket(packet);
      return;
    }
    if (node_down_[hs.receiver]) {
      ++stats_.packets_dropped_down;
      ReleasePacket(packet);
      return;
    }
    ForwardHop(packet, hs.next_hop);
  });
}

void Network::Deliver(Packet* packet) {
  if (node_down_[packet->dst.value()]) {
    ++stats_.packets_dropped_down;
    ReleasePacket(packet);
    return;
  }
  packet->delivered_at = sim_->Now();
  ++stats_.packets_delivered;
  DeliveryFn& fn = receivers_[packet->dst.value()];
  if (fn) {
    fn(*packet);
  }
  ReleasePacket(packet);
}

void Network::SetNodeDown(NodeId node, bool down) { node_down_[node.value()] = down; }

bool Network::IsNodeDown(NodeId node) const { return node_down_[node.value()]; }

void Network::SetRelayDrop(NodeId node, bool drop) { relay_drop_[node.value()] = drop; }

}  // namespace btr
