// Tests for the layered strategy-compilation pipeline: wave-parallel
// building (StrategyBuilder), structural deduplication (Strategy pools),
// hashed fault-set lookup (Strategy::Lookup), and dedup-preserving
// serialization (strategy_io v2).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/planner.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_io.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

PlannerConfig Config(uint32_t f) {
  PlannerConfig config;
  config.max_faults = f;
  return config;
}

// The pre-pipeline lookup semantics: exact-match linear scan.
const Plan* LinearLookup(const Strategy& strategy, const FaultSet& faults) {
  for (const FaultSet& planned : strategy.PlannedSets()) {
    if (planned == faults) {
      return strategy.Lookup(planned);
    }
  }
  return nullptr;
}

TEST(StrategyPipeline, LookupAgreesWithLinearLookupForAllModes) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  EXPECT_EQ(strategy->PlannedSets().size(), strategy->mode_count());

  // Every planned fault set (f <= 2) resolves to the very same plan object,
  // and that plan is the one planned for exactly this set.
  for (const FaultSet& faults : strategy->PlannedSets()) {
    const Plan* plan = strategy->Lookup(faults);
    ASSERT_NE(plan, nullptr) << faults.ToString();
    EXPECT_EQ(plan, LinearLookup(*strategy, faults)) << faults.ToString();
    EXPECT_EQ(plan->faults, faults);
  }
  // Unplanned sets (size f + 1) miss in both.
  const size_t n = s.topology.node_count();
  for (uint32_t a = 0; a + 2 < n; ++a) {
    const FaultSet beyond({NodeId(a), NodeId(a + 1), NodeId(a + 2)});
    EXPECT_EQ(strategy->Lookup(beyond), nullptr);
    EXPECT_EQ(LinearLookup(*strategy, beyond), nullptr);
  }
}

TEST(StrategyPipeline, ParallelBuildIsIdenticalToSerial) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));

  StrategyBuilder serial_builder(&planner, 1);
  auto serial = serial_builder.Build();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(planner.metrics().threads_used, 1u);

  StrategyBuilder parallel_builder(&planner, 4);
  auto parallel = parallel_builder.Build();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(planner.metrics().threads_used, 4u);

  ASSERT_EQ(serial->mode_count(), parallel->mode_count());
  EXPECT_EQ(serial->unique_plan_count(), parallel->unique_plan_count());
  EXPECT_EQ(serial->MemoryFootprintBytes(), parallel->MemoryFootprintBytes());
  for (const FaultSet& faults : serial->PlannedSets()) {
    const Plan* a = serial->Lookup(faults);
    const Plan* b = parallel->Lookup(faults);
    ASSERT_NE(b, nullptr) << faults.ToString();
    EXPECT_TRUE(*a->body == *b->body) << faults.ToString();
  }
}

TEST(StrategyPipeline, DedupShrinksStrategyStorage) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  // Sibling fault modes leave most per-node tables and edge budgets
  // untouched; pooling must store those once.
  EXPECT_LT(strategy->MemoryFootprintBytes(), strategy->ExpandedFootprintBytes());
  EXPECT_LT(strategy->DedupRatio(), 1.0);

  // The sharing is physical, not just accounted: some pair of sibling
  // modes references the same table storage for some node.
  bool shared_table_found = false;
  const std::vector<FaultSet> sets = strategy->PlannedSets();
  for (size_t i = 0; i < sets.size() && !shared_table_found; ++i) {
    for (size_t j = i + 1; j < sets.size() && !shared_table_found; ++j) {
      const Plan* a = strategy->Lookup(sets[i]);
      const Plan* b = strategy->Lookup(sets[j]);
      for (size_t node = 0; node < a->tables().size(); ++node) {
        if (a->tables()[node].SharesStorageWith(b->tables()[node])) {
          shared_table_found = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(shared_table_found);
}

TEST(StrategyPipeline, BuildMetricsReportWavesAndDedup) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  const PlannerMetrics metrics = planner.metrics();
  EXPECT_EQ(metrics.waves, 3u);  // levels 0, 1, 2
  EXPECT_EQ(metrics.modes_planned, strategy->mode_count());
  EXPECT_EQ(metrics.unique_plans, strategy->unique_plan_count());
  // The widest wave is level 2: C(n, 2) modes.
  const size_t n = s.topology.node_count();
  EXPECT_EQ(metrics.max_wave_modes, n * (n - 1) / 2);
  EXPECT_GE(metrics.threads_used, 1u);

  // Dedup accounting must balance: every mode either minted a new physical
  // body or hit an existing one, and the hit count is what the dedup
  // counter reports.
  EXPECT_EQ(metrics.modes_deduped + metrics.unique_plans, strategy->mode_count());
  EXPECT_EQ(metrics.modes_deduped, strategy->dedup_hits());
  // Degradation retries can only add attempts on top of one per mode.
  EXPECT_GE(metrics.schedule_attempts, metrics.modes_planned);
  const std::vector<FaultSet> planned = strategy->PlannedSets();
  EXPECT_EQ(metrics.modes_degraded,
            static_cast<size_t>(
                std::count_if(planned.begin(), planned.end(), [&](const FaultSet& faults) {
                  return !strategy->Lookup(faults)->shed_sinks().empty();
                })));

  // A fresh full build reports no incremental activity.
  EXPECT_EQ(metrics.rebuild_dirty_modes, 0u);
  EXPECT_EQ(metrics.rebuild_clean_modes, 0u);
}

TEST(StrategyPipeline, RoundTripPreservesPlanResolutionForEveryFaultSet) {
  Scenario s = MakeAvionicsScenario();
  Planner planner(&s.topology, &s.workload, Config(2));
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  const std::string blob = SaveStrategy(*strategy, planner.graph(), s.topology);
  auto loaded = LoadStrategy(blob, planner.graph(), s.topology);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->mode_count(), strategy->mode_count());
  for (const FaultSet& faults : strategy->PlannedSets()) {
    const Plan* original = strategy->Lookup(faults);
    const Plan* restored = loaded->Lookup(faults);
    ASSERT_NE(restored, nullptr) << faults.ToString();
    EXPECT_TRUE(*original->body == *restored->body) << faults.ToString();
  }

  // Deduplication survives the round trip: the body pool is no larger than
  // the original, and the loaded strategy shrank the same way.
  EXPECT_EQ(loaded->unique_plan_count(), strategy->unique_plan_count());
  EXPECT_EQ(loaded->MemoryFootprintBytes(), strategy->MemoryFootprintBytes());

  // The serialized form itself is deduplicated: saving the loaded strategy
  // reproduces the blob byte for byte.
  EXPECT_EQ(SaveStrategy(*loaded, planner.graph(), s.topology), blob);
}

TEST(StrategyPipeline, ParentResolutionByCanonicalFaultSetId) {
  // Parent plans are passed by canonical fault-set lookup, so every mode's
  // parents exist and carry the parent's own fault set even when bodies are
  // shared. Verify via the stickiness invariant: with heavy stickiness, a
  // child mode keeps the placements of its parent for all tasks whose hosts
  // survive (the planner only moves what the fault forces off).
  Scenario s = MakeScadaScenario(6);
  PlannerConfig config = Config(2);
  config.weight_parent = 100.0;  // make stickiness dominate
  Planner planner(&s.topology, &s.workload, config);
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok());

  size_t checked = 0;
  for (const FaultSet& faults : strategy->PlannedSets()) {
    if (faults.size() != 2) {
      continue;
    }
    const Plan* child = strategy->Lookup(faults);
    ASSERT_NE(child, nullptr);
    for (NodeId x : faults.nodes()) {
      const Plan* parent = strategy->Lookup(faults.Without(x));
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->faults, faults.Without(x));  // canonical identity kept
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace btr
