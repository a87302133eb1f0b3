// Unit tests for the discrete-event engine and local clocks.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/shard_layout.h"
#include "src/sim/simulator.h"

namespace btr {
namespace {

TEST(EventQueue, DeliversInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesDeliverInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.RunNext();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsSafe) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(EventHandle()));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(h);
  EXPECT_EQ(q.NextTime(), 20);
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.Schedule(q.last_popped_time() + 10, chain);
    }
  };
  q.Schedule(0, chain);
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.last_popped_time(), 40);
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.Schedule(10, [&] { ++fired; });
  q.RunNext();
  EXPECT_EQ(fired, 1);
  // The event already ran: its generation moved on, so Cancel is a no-op.
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(EventQueue, CancelTwiceSecondIsNoOp) {
  EventQueue q;
  EventHandle h = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.NextTime(), 20);
}

TEST(EventQueue, SlotReuseAcrossGenerationsKeepsStaleHandlesDead) {
  EventQueue q;
  // Fire one event so its slot returns to the freelist, then schedule a new
  // event that reuses the slot. The old handle must not cancel the new event
  // (its generation is stale), and the new handle must still work.
  int first = 0;
  int second = 0;
  EventHandle old_handle = q.Schedule(10, [&] { ++first; });
  q.RunNext();
  EventHandle new_handle = q.Schedule(20, [&] { ++second; });
  EXPECT_FALSE(q.Cancel(old_handle)) << "stale handle must not cancel the reused slot";
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_TRUE(q.Cancel(new_handle));
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(EventQueue, CancelledSlotReusePreservesInsertionOrderTieBreak) {
  EventQueue q;
  std::vector<int> order;
  // Interleave schedules and cancels at one timestamp; survivors must run
  // in their original insertion order even though slots get recycled.
  EventHandle a = q.Schedule(5, [&] { order.push_back(0); });
  q.Schedule(5, [&] { order.push_back(1); });
  q.Cancel(a);
  q.Schedule(5, [&] { order.push_back(2); });  // reuses a's slot
  q.Schedule(5, [&] { order.push_back(3); });
  while (!q.Empty()) {
    q.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ManyGenerationsOfReuse) {
  EventQueue q;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 100; ++round) {
    EventHandle h = q.Schedule(q.last_popped_time() + 1, [&] { ++fired; });
    if (round % 2 == 0) {
      q.Cancel(h);
    } else {
      q.RunNext();
    }
    handles.push_back(h);
  }
  EXPECT_EQ(fired, 50);
  for (EventHandle h : handles) {
    EXPECT_FALSE(q.Cancel(h));  // every generation is spent
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, OversizedCaptureFallsBackToHeap) {
  // Captures beyond the inline buffer still work (heap fallback path).
  EventQueue q;
  std::array<uint64_t, 32> big{};
  big[0] = 7;
  big[31] = 9;
  uint64_t sum = 0;
  q.Schedule(1, [big, &sum] { sum = big[0] + big[31]; });
  q.RunNext();
  EXPECT_EQ(sum, 16u);
}

TEST(Simulator, NowAdvancesBeforeCallbacks) {
  Simulator sim(1);
  SimTime seen = -1;
  sim.At(100, [&] { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim(1);
  SimTime seen = -1;
  sim.At(50, [&] { sim.After(25, [&] { seen = sim.Now(); }); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, CallbackSchedulingAtSameTimeRuns) {
  // Regression: Now() must equal the event timestamp inside the callback so
  // that sim.After(0, ...) never lands in the past.
  Simulator sim(1);
  int fired = 0;
  sim.At(10, [&] {
    sim.At(20, [&] { ++fired; });
  });
  sim.At(15, [&] {
    sim.After(0, [&] { ++fired; });
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim(1);
  int fired = 0;
  sim.At(1, [&] { ++fired; });
  sim.At(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim(1);
  bool fired = false;
  EventHandle h = sim.At(10, [&] { fired = true; });
  sim.Cancel(h);
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

// --- multi-shard engine ---

// Actors 0 and 2 live on shard 0, actors 1 and 3 on shard 1; an event
// crossing shards lands at least 10 ns after its sender's time.
ShardLayout TwoShards() {
  ShardLayout layout;
  layout.shard_count = 2;
  layout.shard_of = {0, 1, 0, 1};
  layout.lookahead = 10;
  return layout;
}

// (running actor, "target<-scheduler@time") in execution order.
using RunLog = std::vector<std::pair<uint32_t, std::string>>;

// At t=5, actor 0 (shard 0) schedules an event for actor 1 (shard 1, above
// it) and actor 1 one for actor 0 (shard 0, below it), both at t=15: the
// end of the first window. Actor 2 schedules its own t=15 event, and the
// driver schedules one for actor 0 up front. On shard 0 the event from
// actor 1 is queued after actor 2's, yet its canonical priority is lower.
RunLog RunCrossShardScenario(Simulator& sim, bool step) {
  RunLog log;
  auto record = [&sim, &log](uint32_t actor, const char* tag) {
    log.emplace_back(actor, std::string(tag) + "@" + std::to_string(sim.Now()));
  };
  sim.AtActor(0, 5, [&] { sim.AtActor(1, 15, [&] { record(1, "1<-0"); }); });
  sim.AtActor(1, 5, [&] { sim.AtActor(0, 15, [&] { record(0, "0<-1"); }); });
  sim.AtActor(2, 5, [&] { sim.At(15, [&] { record(2, "2<-2"); }); });
  sim.AtActor(0, 15, [&] { record(0, "0<-driver"); });
  if (step) {
    while (sim.Step()) {
    }
  } else {
    sim.RunToCompletion();
  }
  return log;
}

std::vector<std::string> OnShard(const RunLog& log, const Simulator& sim, uint32_t shard) {
  std::vector<std::string> out;
  for (const auto& [actor, text] : log) {
    if (sim.ShardOf(actor) == shard) {
      out.push_back(text);
    }
  }
  return out;
}

TEST(ShardedSimulator, CrossShardEventsRunAtTheirTimeInCanonicalOrder) {
  Simulator sim(1, TwoShards());
  const RunLog log = RunCrossShardScenario(sim, /*step=*/false);
  EXPECT_EQ(OnShard(log, sim, 0),
            (std::vector<std::string>{"0<-driver@15", "0<-1@15", "2<-2@15"}));
  EXPECT_EQ(OnShard(log, sim, 1), (std::vector<std::string>{"1<-0@15"}));
  EXPECT_EQ(sim.Now(), 15);
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ShardedSimulator, StepMergesShardsInSingleQueueOrder) {
  Simulator one(1);
  Simulator two(1, TwoShards());
  const RunLog expected = RunCrossShardScenario(one, /*step=*/false);
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_EQ(RunCrossShardScenario(two, /*step=*/true), expected);
  EXPECT_EQ(two.Now(), 15);
}

TEST(ShardedSimulator, CancellingAnotherShardsEventInsideAWindowIsRejected) {
  Simulator sim(1, TwoShards());
  bool on_shard1_ran = false;
  bool on_shard0_ran = false;
  bool same_shard_ran = false;
  const EventHandle on_shard1 = sim.AtActor(1, 20, [&] { on_shard1_ran = true; });
  const EventHandle on_shard0 = sim.AtActor(0, 20, [&] { on_shard0_ran = true; });
  const EventHandle same_shard = sim.AtActor(2, 20, [&] { same_shard_ran = true; });
  bool cancelled_up = true;
  bool cancelled_down = true;
  bool cancelled_same = false;
  sim.AtActor(0, 5, [&] {
    cancelled_up = sim.Cancel(on_shard1);
    cancelled_same = sim.Cancel(same_shard);
  });
  sim.AtActor(3, 5, [&] { cancelled_down = sim.Cancel(on_shard0); });
  sim.RunToCompletion();
  EXPECT_FALSE(cancelled_up);
  EXPECT_FALSE(cancelled_down);
  EXPECT_TRUE(on_shard1_ran);
  EXPECT_TRUE(on_shard0_ran);
  // The same-shard control: a window may cancel its own shard's events.
  EXPECT_TRUE(cancelled_same);
  EXPECT_FALSE(same_shard_ran);
}

TEST(LocalClock, PerfectClockIsIdentity) {
  LocalClock clock;
  EXPECT_EQ(clock.Read(12345), 12345);
  EXPECT_EQ(clock.TrueTimeAt(777), 777);
}

TEST(LocalClock, OffsetShiftsReading) {
  LocalClock clock(Microseconds(5), 0.0);
  EXPECT_EQ(clock.Read(Milliseconds(1)), Milliseconds(1) + Microseconds(5));
}

TEST(LocalClock, DriftGrowsWithTime) {
  LocalClock clock(0, 100.0);  // 100 ppm fast
  const SimTime t = Seconds(10);
  EXPECT_NEAR(static_cast<double>(clock.Read(t) - t), 1e9 * 10 * 100e-6, 1.0);
}

TEST(LocalClock, TrueTimeInvertsRead) {
  LocalClock clock(Microseconds(3), 50.0);
  const SimTime t = Seconds(2);
  EXPECT_NEAR(static_cast<double>(clock.TrueTimeAt(clock.Read(t))), static_cast<double>(t), 2.0);
}

TEST(LocalClock, MaxErrorBoundsActualError) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    LocalClock clock = LocalClock::Random(&rng, Microseconds(50), 200.0);
    const SimDuration run = Seconds(5);
    const SimDuration bound = clock.MaxError(run);
    for (SimTime t = 0; t <= run; t += run / 10) {
      EXPECT_LE(std::abs(clock.Read(t) - t), bound);
    }
  }
}

}  // namespace
}  // namespace btr
