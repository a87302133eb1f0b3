// The simulation driver: event queues, current time, root RNG, and the
// conservative-window (Chandy–Misra–Bryant style) shard engine.
//
// With the default single-shard layout every event lives in one queue and
// RunToCompletion is the classic sequential loop.
//
// With a multi-shard layout, each shard owns an EventQueue. Execution
// proceeds in conservative windows on the calling thread: the driver picks
// the globally earliest pending event time t, and runs every shard's events
// in [t, t + lookahead) one shard after the other. No shard can affect
// another inside a window, because any event a shard schedules for a peer
// lands no earlier than t + lookahead (the minimum cross-shard link
// latency), so cross-shard schedules go straight into the owner's queue.
// Driver events (period ticks — the natural coarse barriers — fault
// injections, install shipping) run between windows and may touch any
// shard's actors.
//
// Determinism is the contract: every event carries a canonical priority
// (scheduling actor, per-actor counter) that is independent of the shard
// layout, and each queue pops in (when, priority) order. The result is that
// reports are byte-identical for ANY shard count, including 1. Window
// boundaries do vary with the layout; event order per actor does not.

#ifndef BTR_SRC_SIM_SIMULATOR_H_
#define BTR_SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_layout.h"

namespace btr {

// Sentinel actor id for driver / harness events (fault injections, period
// ticks, install shipping). Sorts before every node actor in the canonical
// event order.
inline constexpr uint32_t kDriverActor = 0xFFFFFFFFu;

class Simulator {
 public:
  // Single-shard simulator: the classic sequential engine.
  explicit Simulator(uint64_t seed);
  // Sharded simulator. A layout with shard_count == 1 is identical to the
  // sequential form.
  Simulator(uint64_t seed, ShardLayout layout);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Simulated time: the executing event's timestamp inside an event, the
  // latest executed (or run-to) time otherwise.
  SimTime Now() const { return now_; }

  // Root RNG, for planning and scenario setup. The data plane itself draws
  // no randomness — loss draws are stateless hashes (see net/network.cc).
  Rng* rng() { return &rng_; }
  uint64_t seed() const { return seed_; }

  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(uint32_t actor) const { return layout_.ShardOf(actor); }
  SimDuration lookahead() const { return lookahead_; }

  // Schedules `fn` at absolute time `when` (>= Now()) for the actor of the
  // executing event: a node event reschedules for its own node (same
  // shard), a driver caller schedules a driver event. Inline, with the
  // callable taken by rvalue: the data plane schedules one event per hop
  // and per job dispatch, and each avoided 48-byte move is measurable.
  EventHandle At(SimTime when, EventFn&& fn) {
    assert(when >= Now());
    if (actor_ == kDriverActor) {
      return DriverQueue().Schedule(when, next_driver_prio_++, kDriverActor, std::move(fn));
    }
    return queues_[layout_.ShardOf(actor_)]->Schedule(when, NextActorPrio(actor_), actor_,
                                                      std::move(fn));
  }

  // Schedules `fn` at `when` owned by `actor`, which may live on another
  // shard. A cross-shard schedule from inside a window must respect the
  // lookahead (when >= window end), so it cannot run before the window's
  // own events on the target shard.
  EventHandle AtActor(uint32_t actor, SimTime when, EventFn&& fn) {
    assert(when >= Now());
    const uint64_t prio =
        actor_ == kDriverActor ? next_driver_prio_++ : NextActorPrio(actor_);
    const uint32_t shard = layout_.ShardOf(actor);
    assert((exec_shard_ == kNoShard || shard == exec_shard_ || when >= window_end_) &&
           "cross-shard event inside the lookahead window");
    return queues_[shard]->Schedule(when, prio, actor, std::move(fn));
  }

  // Schedules `fn` to run after `delay` (>= 0) for the executing actor.
  EventHandle After(SimDuration delay, EventFn&& fn) {
    assert(delay >= 0);
    return At(Now() + delay, std::move(fn));
  }

  // Cancels a pending event. Inside a shard's event, a handle owned by
  // another queue is rejected with an error: that shard may already have
  // run past the moment of the cancellation, so honoring it would depend
  // on the shard layout.
  bool Cancel(EventHandle h);

  // Runs until the queues drain or simulated time would exceed `deadline`.
  // Returns the final simulated time.
  SimTime RunUntil(SimTime deadline);

  // Runs until every queue is fully drained.
  SimTime RunToCompletion();

  // Executes exactly one event (the globally earliest) if one is pending;
  // returns false if idle.
  bool Step();

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const;

 private:
  static constexpr uint32_t kNoShard = 0xFFFFFFFFu;

  // Canonical tie-break priority. Driver events use a bare counter (always
  // below every actor priority at equal timestamps); actor events use
  // (actor + 1) << 40 | counter. Both depend only on the actor's own
  // execution history, never on the shard layout.
  uint64_t NextActorPrio(uint32_t actor) {
    if (actor >= actor_seq_.size()) {
      // Only the default (layout-less) single-shard simulator can see an
      // actor beyond the layout: unit harnesses construct Simulator(seed)
      // and invent actor ids ad hoc. A partitioned layout covers every
      // node up front, making an out-of-range actor a caller bug.
      assert(shard_count_ == 1);
      actor_seq_.resize(size_t{actor} + 1);
    }
    return (uint64_t{actor} + 1) << 40 | actor_seq_[actor]++;
  }

  EventQueue& DriverQueue() { return shard_count_ == 1 ? *queues_[0] : driver_queue_; }

  // Pops and runs the earliest event of `queue` as its owning actor.
  void RunNextOf(EventQueue& queue);
  // Runs shard `shard`'s events with when < window_end_.
  void RunShardWindow(uint32_t shard);
  // Windowed conservative execution of events with when <= deadline.
  void RunWindowed(SimTime deadline);
  // Single-event global (when, prio) merge (Step on a sharded simulator).
  bool StepMerged();

  ShardLayout layout_;
  uint32_t shard_count_ = 1;
  SimDuration lookahead_ = kSimTimeNever;

  std::vector<std::unique_ptr<EventQueue>> queues_;  // one per shard
  EventQueue driver_queue_;  // unused when shard_count_ == 1
  std::vector<uint64_t> actor_seq_;
  uint64_t next_driver_prio_ = 1;

  // Execution context: the actor of the executing event (kDriverActor
  // outside node events), and the shard it runs on (kNoShard outside
  // windows and merged steps).
  uint32_t actor_ = kDriverActor;
  uint32_t exec_shard_ = kNoShard;
  SimTime window_end_ = 0;

  SimTime now_ = 0;
  uint64_t seed_ = 0;
  Rng rng_;
  uint64_t events_executed_ = 0;
};

}  // namespace btr

#endif  // BTR_SRC_SIM_SIMULATOR_H_
