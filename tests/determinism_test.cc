// Determinism regression tests for the data-plane hot path.
//
// The runtime's per-period state lives in flat hash maps and pooled
// objects; none of that machinery may leak into behavior. These tests run
// the same seeded scenario repeatedly and require byte-identical serialized
// reports (correctness counts, network stats, per-node stats, fault
// outcomes) — any hash-iteration-order or allocation-order dependence shows
// up as a diff here.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/btr_system.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

BtrConfig Config(uint64_t seed) {
  BtrConfig config;
  config.planner.max_faults = 2;
  config.planner.recovery_bound = Milliseconds(500);
  config.seed = seed;
  return config;
}

// A run that exercises every hot path: dispatch, heartbeats, a crash
// (path-blame detection), and a value corruption (commission evidence,
// verification budget, mode switch + state migration).
std::string SerializedRun(uint64_t seed) {
  BtrSystem system(MakeAvionicsScenario(6), Config(seed));
  EXPECT_TRUE(system.Plan().ok());

  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(400);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);

  FaultInjection corrupt;
  corrupt.node = NodeId(1);
  corrupt.manifest_at = Milliseconds(900);
  corrupt.behavior = FaultBehavior::kValueCorruption;
  system.AddFault(corrupt);

  auto report = system.Run(120);
  EXPECT_TRUE(report.ok());
  return SerializeRunReport(*report);
}

TEST(Determinism, SameSeedSameScenarioByteIdenticalReport) {
  const std::string first = SerializedRun(7);
  const std::string second = SerializedRun(7);
  // EXPECT_EQ on the full dumps: a mismatch prints the first differing line.
  EXPECT_EQ(first, second);
}

TEST(Determinism, RepeatedRunsOfOneSystemAreIdentical) {
  // Re-running the same BtrSystem object must also be stable: pooled
  // packets, payload arenas, and flat maps are rebuilt per run and must not
  // carry state across runs.
  BtrSystem system(MakeAvionicsScenario(6), Config(3));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(2);
  crash.manifest_at = Milliseconds(300);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);

  auto first = system.Run(100);
  auto second = system.Run(100);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(SerializeRunReport(*first), SerializeRunReport(*second));
}

TEST(Determinism, SerializationIsSensitiveToScenarioChanges) {
  // Sanity check that the serialization can detect divergence at all: a
  // different fault time must produce a different dump.
  BtrSystem system(MakeAvionicsScenario(6), Config(7));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(200);  // earlier than SerializedRun's
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);
  auto report = system.Run(120);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(SerializeRunReport(*report), SerializedRun(7));
}

TEST(Determinism, FingerprintMatchesSerialization) {
  const std::string dump = SerializedRun(7);
  BtrSystem system(MakeAvionicsScenario(6), Config(7));
  ASSERT_TRUE(system.Plan().ok());
  FaultInjection crash;
  crash.node = NodeId(0);
  crash.manifest_at = Milliseconds(400);
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);
  FaultInjection corrupt;
  corrupt.node = NodeId(1);
  corrupt.manifest_at = Milliseconds(900);
  corrupt.behavior = FaultBehavior::kValueCorruption;
  system.AddFault(corrupt);
  auto report = system.Run(120);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(FingerprintRunReport(*report), HashString(dump));
}

// --- Shard-count invariance -------------------------------------------------
//
// The conservative-parallel engine's contract: sharding is a speed knob,
// never a semantics knob. The same seeded scenario must produce a
// byte-identical serialized report at every shard count, with shards=1
// reducing exactly to the classic single-queue loop. A multi-shard run
// executes in conservative windows, with cross-shard events pushed straight
// into the owner's queue, so these oracles put the window bounds, the
// canonical priorities, and the cross-shard schedules on the hook.

// Runs `configure`d E7-scale system (8 interchangeable flight computers,
// f=2) once per shard count and requires all dumps byte-identical.
template <typename ConfigureFaults>
void ExpectShardInvariant(uint64_t seed, uint64_t periods, ConfigureFaults configure) {
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    BtrSystem system(MakeAvionicsScenario(8), Config(seed));
    system.set_shards(shards);
    ASSERT_TRUE(system.Plan().ok());
    configure(system);
    auto report = system.Run(periods);
    ASSERT_TRUE(report.ok());
    const std::string dump = SerializeRunReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "report diverged at shards=" << shards;
    }
  }
}

TEST(ShardInvariance, FaultFreeE7ByteIdenticalAcrossShardCounts) {
  ExpectShardInvariant(11, 80, [](BtrSystem&) {});
}

TEST(ShardInvariance, FaultyE7ByteIdenticalAcrossShardCounts) {
  // Crash + value corruption: detection, evidence distribution,
  // verification, and the mode switch all cross shard boundaries.
  ExpectShardInvariant(11, 80, [](BtrSystem& system) {
    FaultInjection crash;
    crash.node = NodeId(0);
    crash.manifest_at = Milliseconds(300);
    crash.behavior = FaultBehavior::kCrash;
    system.AddFault(crash);
    FaultInjection corrupt;
    corrupt.node = NodeId(1);
    corrupt.manifest_at = Milliseconds(700);
    corrupt.behavior = FaultBehavior::kValueCorruption;
    system.AddFault(corrupt);
  });
}

TEST(ShardInvariance, LossyRunByteIdenticalAcrossShardCounts) {
  // Loss draws are stateless hashes of (seed, link, packet id, hop index) —
  // never per-shard RNG state — so a lossy run must honor the same
  // contract as a clean one: every shards N run is byte-identical to the
  // single-queue shards=1 loop.
  BtrConfig config = Config(11);
  config.planner.network.loss_probability = 0.02;
  std::string baseline;
  std::string widest;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    BtrSystem system(MakeAvionicsScenario(8), config);
    system.set_shards(shards);
    ASSERT_TRUE(system.Plan().ok());
    auto report = system.Run(80);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->network.packets_dropped_loss, 0u);
    const std::string dump = SerializeRunReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "lossy report diverged at shards=" << shards;
    }
    widest = dump;
  }
  // A fresh shards=1 run against the shards=8 report: the comparison holds
  // in both directions and does not lean on the loop's own baseline.
  BtrSystem system(MakeAvionicsScenario(8), config);
  system.set_shards(1);
  ASSERT_TRUE(system.Plan().ok());
  auto report = system.Run(80);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(SerializeRunReport(*report), widest) << "shards=1 diverged from shards=8";
}

TEST(ShardInvariance, TransientHealingFaultByteIdenticalAcrossShardCounts) {
  // A transient corruption that heals (`until`): the heal edge and any
  // conviction racing it must land in the same canonical order regardless
  // of which shard executes the victim.
  ExpectShardInvariant(13, 80, [](BtrSystem& system) {
    FaultInjection transient;
    transient.node = NodeId(2);
    transient.manifest_at = Milliseconds(250);
    transient.until = Milliseconds(650);
    transient.behavior = FaultBehavior::kValueCorruption;
    system.AddFault(transient);
  });
}

TEST(ShardInvariance, AvionicsFlapRolloutByteIdenticalAcrossShardCounts) {
  // The shipped flap script: a gossip rollout while the value corrupter,
  // convicted before the rollout starts, is isolated by its neighbors.
  // Which node is excused from completion, and when the last of the others
  // installs, must not depend on the shard layout.
  std::ifstream in(std::string(BTR_SOURCE_DIR) + "/examples/specs/avionics_flap.btrx");
  ASSERT_TRUE(in.good()) << "examples/specs/avionics_flap.btrx is missing";
  std::stringstream text;
  text << in.rdbuf();
  std::string baseline;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    auto spec = ParseExperimentSpec(text.str());
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->shards = shards;
    auto report = RunExperiment(*spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const InstallRunReport& install = report->phases[0].install;
    EXPECT_NE(install.completed_at, kSimTimeNever) << "shards=" << shards;
    const std::string dump = SerializeExperimentReport(*report);
    if (shards == 1) {
      baseline = dump;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(dump, baseline) << "flap report diverged at shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace btr
