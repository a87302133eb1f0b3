// Unit tests for fault sets, plan deltas, and strategies.

#include <gtest/gtest.h>

#include "src/core/plan.h"

namespace btr {
namespace {

TEST(FaultSet, SortedAndDeduplicated) {
  FaultSet s({NodeId(3), NodeId(1), NodeId(3), NodeId(2)});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.nodes()[0], NodeId(1));
  EXPECT_EQ(s.nodes()[2], NodeId(3));
}

TEST(FaultSet, AddIsIdempotent) {
  FaultSet s;
  EXPECT_TRUE(s.Add(NodeId(5)));
  EXPECT_FALSE(s.Add(NodeId(5)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(NodeId(5)));
  EXPECT_FALSE(s.Contains(NodeId(4)));
}

TEST(FaultSet, WithProducesSortedCopy) {
  FaultSet s({NodeId(5)});
  const FaultSet t = s.With(NodeId(2));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.nodes()[0], NodeId(2));
}

TEST(FaultSet, CoversSubsets) {
  FaultSet big({NodeId(1), NodeId(2), NodeId(3)});
  EXPECT_TRUE(big.Covers(FaultSet({NodeId(1), NodeId(3)})));
  EXPECT_TRUE(big.Covers(FaultSet()));
  EXPECT_FALSE(big.Covers(FaultSet({NodeId(4)})));
}

TEST(FaultSet, EqualityAndOrdering) {
  EXPECT_EQ(FaultSet({NodeId(2), NodeId(1)}), FaultSet({NodeId(1), NodeId(2)}));
  EXPECT_LT(FaultSet({NodeId(1)}), FaultSet({NodeId(2)}));
  EXPECT_LT(FaultSet(), FaultSet({NodeId(0)}));
}

TEST(FaultSet, ToStringFormat) {
  EXPECT_EQ(FaultSet().ToString(), "{}");
  EXPECT_EQ(FaultSet({NodeId(2), NodeId(0)}).ToString(), "{n0,n2}");
}

// Minimal augmented graph for delta tests.
struct DeltaFixture {
  Dataflow workload{Milliseconds(10)};
  std::unique_ptr<AugmentedGraph> graph;

  DeltaFixture() {
    const TaskId src = workload.AddSource("s", 10, NodeId(0), Criticality::kHigh);
    const TaskId mid = workload.AddCompute("m", 10, 512, Criticality::kHigh);
    const TaskId sink = workload.AddSink("k", 10, NodeId(1), Criticality::kHigh,
                                         Milliseconds(5));
    workload.Connect(src, mid, 8);
    workload.Connect(mid, sink, 8);
    AugmentConfig config;
    config.replication = 2;
    graph = std::make_unique<AugmentedGraph>(&workload, 3, config);
  }

  PlanBody EmptyBody() const {
    PlanBody body;
    body.placement.assign(graph->size(), NodeId::Invalid());
    body.start.assign(graph->size(), -1);
    return body;
  }

  Plan MakePlan(FaultSet faults, PlanBody body) const {
    return Plan(std::move(faults), nullptr, std::move(body));
  }
};

TEST(PlanDelta, IdenticalPlansHaveZeroDelta) {
  DeltaFixture fx;
  PlanBody body = fx.EmptyBody();
  body.placement[0] = NodeId(0);
  body.placement[1] = NodeId(1);
  const Plan a = fx.MakePlan(FaultSet(), std::move(body));
  const PlanDelta d = ComputeDelta(a, a, *fx.graph);
  EXPECT_EQ(d.tasks_moved, 0u);
  EXPECT_EQ(d.tasks_started, 0u);
  EXPECT_EQ(d.tasks_stopped, 0u);
  EXPECT_EQ(d.state_bytes_moved, 0u);
}

TEST(PlanDelta, CountsMovesStartsStops) {
  DeltaFixture fx;
  const auto& reps = fx.graph->ReplicasOf(fx.workload.FindTask("m"));
  PlanBody body_a = fx.EmptyBody();
  PlanBody body_b = fx.EmptyBody();
  // Replica 0 moves node0 -> node2 (512 bytes of state).
  body_a.placement[reps[0]] = NodeId(0);
  body_b.placement[reps[0]] = NodeId(2);
  // Replica 1 stops.
  body_a.placement[reps[1]] = NodeId(1);
  // Source starts (no state).
  const uint32_t src_aug = fx.graph->PrimaryOf(fx.workload.FindTask("s"));
  body_b.placement[src_aug] = NodeId(0);

  const Plan a = fx.MakePlan(FaultSet(), std::move(body_a));
  const Plan b = fx.MakePlan(FaultSet(), std::move(body_b));
  const PlanDelta d = ComputeDelta(a, b, *fx.graph);
  EXPECT_EQ(d.tasks_moved, 1u);
  EXPECT_EQ(d.tasks_stopped, 1u);
  EXPECT_EQ(d.tasks_started, 1u);
  EXPECT_EQ(d.state_bytes_moved, 512u);
}

TEST(Strategy, InsertAndLookup) {
  Strategy strategy;
  PlanBody body;
  body.utility = 7.0;
  strategy.Insert(Plan(FaultSet({NodeId(1)}), nullptr, std::move(body)));
  ASSERT_NE(strategy.Lookup(FaultSet({NodeId(1)})), nullptr);
  EXPECT_EQ(strategy.Lookup(FaultSet({NodeId(1)}))->utility(), 7.0);
  EXPECT_EQ(strategy.Lookup(FaultSet({NodeId(2)})), nullptr);
  EXPECT_EQ(strategy.mode_count(), 1u);
  EXPECT_EQ(strategy.unique_plan_count(), 1u);
}

TEST(Strategy, LookupIsExactMatch) {
  Strategy strategy;
  strategy.Insert(Plan(FaultSet(), nullptr, PlanBody()));  // empty fault set
  EXPECT_NE(strategy.Lookup(FaultSet()), nullptr);
  EXPECT_EQ(strategy.Lookup(FaultSet({NodeId(0)})), nullptr);
}

TEST(Strategy, PlannedSetsEnumerates) {
  Strategy strategy;
  strategy.Insert(Plan(FaultSet({NodeId(2)}), nullptr, PlanBody()));
  strategy.Insert(Plan(FaultSet(), nullptr, PlanBody()));
  const auto sets = strategy.PlannedSets();
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], FaultSet());  // canonical order: {} < {n2}
  EXPECT_EQ(sets[1], FaultSet({NodeId(2)}));
}

TEST(Strategy, DedupSharesIdenticalBodies) {
  DeltaFixture fx;
  Strategy strategy;
  PlanBody body = fx.EmptyBody();
  body.placement[0] = NodeId(0);
  const Plan* a = strategy.Insert(fx.MakePlan(FaultSet(), body));
  const Plan* b = strategy.Insert(fx.MakePlan(FaultSet({NodeId(2)}), body));
  EXPECT_EQ(strategy.mode_count(), 2u);
  EXPECT_EQ(strategy.unique_plan_count(), 1u);
  EXPECT_EQ(strategy.dedup_hits(), 1u);
  EXPECT_EQ(a->body.get(), b->body.get());  // physically shared
  EXPECT_NE(a->faults, b->faults);          // per-mode identity kept
  EXPECT_LT(strategy.DedupRatio(), 1.0);    // storage shrank vs verbatim

  // A different schedule must get its own body.
  PlanBody other = fx.EmptyBody();
  other.placement[0] = NodeId(1);
  const Plan* c = strategy.Insert(fx.MakePlan(FaultSet({NodeId(1)}), std::move(other)));
  EXPECT_EQ(strategy.unique_plan_count(), 2u);
  EXPECT_NE(c->body.get(), a->body.get());
}

TEST(Strategy, LookupFindsEveryModeAndRejectsUnknown) {
  DeltaFixture fx;
  Strategy strategy;
  strategy.Insert(fx.MakePlan(FaultSet(), fx.EmptyBody()));
  strategy.Insert(fx.MakePlan(FaultSet({NodeId(0)}), fx.EmptyBody()));
  strategy.Insert(fx.MakePlan(FaultSet({NodeId(0), NodeId(2)}), fx.EmptyBody()));

  EXPECT_EQ(strategy.mode_count(), 3u);
  for (const FaultSet& faults : strategy.PlannedSets()) {
    const Plan* plan = strategy.Lookup(faults);
    ASSERT_NE(plan, nullptr) << faults.ToString();
    EXPECT_EQ(plan->faults, faults);
  }
  EXPECT_EQ(strategy.Lookup(FaultSet({NodeId(1)})), nullptr);
  EXPECT_EQ(Strategy().Lookup(FaultSet()), nullptr);
}

TEST(Strategy, MemoryFootprintGrowsWithPlans) {
  DeltaFixture fx;
  Strategy strategy;
  strategy.Insert(fx.MakePlan(FaultSet(), fx.EmptyBody()));
  const size_t one = strategy.MemoryFootprintBytes();
  strategy.Insert(fx.MakePlan(FaultSet({NodeId(0)}), fx.EmptyBody()));
  EXPECT_GT(strategy.MemoryFootprintBytes(), one);
}

TEST(Strategy, FootprintCountsSharedBodiesOnce) {
  DeltaFixture fx;
  PlanBody body = fx.EmptyBody();
  body.placement[0] = NodeId(0);

  Strategy deduped;
  deduped.Insert(fx.MakePlan(FaultSet(), body));
  deduped.Insert(fx.MakePlan(FaultSet({NodeId(1)}), body));
  deduped.Insert(fx.MakePlan(FaultSet({NodeId(2)}), body));

  // Three modes, one body: footprint must be far below three full bodies.
  const size_t body_bytes = body.FootprintBytes();
  EXPECT_LT(deduped.MemoryFootprintBytes(), 2 * body_bytes);
  EXPECT_GE(deduped.MemoryFootprintBytes(), body_bytes);
}

}  // namespace
}  // namespace btr
