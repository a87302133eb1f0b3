// Topology-aware shard partitioner for the windowed simulator.
//
// Groups nodes by link locality: nodes joined by low-latency links carry
// the densest traffic (and the tightest event coupling), so the greedy
// grower keeps them on one shard and pushes shard boundaries onto the
// slowest links. That maximizes the conservative lookahead — the minimum
// over cut links of (propagation + fastest possible serialization) — which
// directly sets how wide a window every shard can execute without
// synchronizing.
//
// The partition is a pure function of (topology, shard count, network
// config): no RNG, no iteration-order dependence, so a given scenario
// always produces the same layout on every host. Correctness never depends
// on the partition anyway — reports are byte-identical for any layout —
// but a stable one keeps scaling numbers comparable.

#ifndef BTR_SRC_NET_PARTITION_H_
#define BTR_SRC_NET_PARTITION_H_

#include <cstdint>

#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/shard_layout.h"

namespace btr {

// Fastest time any message can occupy `link` and arrive: propagation plus
// the serialization of a minimum-size frame (config.min_frame_bytes,
// floored at 1) at the largest class fraction. Every real hop takes at
// least this long, which is what makes it a sound lookahead bound.
SimDuration MinHopLatency(const Topology& topo, const NetworkConfig& config, LinkId link);

// Partitions `topo` into at most `shards` shards (clamped to the node
// count) and computes the lookahead over the resulting cut links.
// shards <= 1 yields the degenerate single-shard layout.
ShardLayout PartitionTopology(const Topology& topo, uint32_t shards,
                              const NetworkConfig& config);

}  // namespace btr

#endif  // BTR_SRC_NET_PARTITION_H_
