// Shard layout for the conservative-window simulator.
//
// A layout assigns every simulated actor (node) to one shard and carries
// the conservative lookahead: the minimum latency any message needs to
// cross between two shards. Events a shard schedules for itself may land at
// any future time; events that cross shards are guaranteed to land at least
// `lookahead` after the sender's current time, which is what lets every
// shard safely execute a window of that width without hearing from its
// peers. The partitioner over Topology (src/net/partition.h) builds these;
// the default layout is the degenerate single-shard one, which reduces the
// simulator to the classic sequential engine.

#ifndef BTR_SRC_SIM_SHARD_LAYOUT_H_
#define BTR_SRC_SIM_SHARD_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace btr {

struct ShardLayout {
  uint32_t shard_count = 1;
  // shard_of[actor] for actor in [0, actor_count). Empty means "everything
  // on shard 0".
  std::vector<uint32_t> shard_of;
  // Minimum cross-shard event latency. kSimTimeNever when no link crosses
  // shards (or shard_count == 1): the shards are fully independent.
  SimDuration lookahead = kSimTimeNever;

  uint32_t ShardOf(uint32_t actor) const {
    return actor < shard_of.size() ? shard_of[actor] : 0;
  }
};

}  // namespace btr

#endif  // BTR_SRC_SIM_SHARD_LAYOUT_H_
