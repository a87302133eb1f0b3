// The planner's shed search against a linear-scan oracle.
//
// Planner::PlanForMode degrades an infeasible mode by bisecting the length
// L of the served prefix of the admitted sinks. These tests probe every
// prefix of every mode with single attempts (Planner::PlanServing) and
// check the choice: it is feasible, one sink more is not, and wherever a
// mode's feasibility is monotone in L it equals what shedding one sink at a
// time from the full set would pick (the largest feasible prefix). Where
// greedy placement makes feasibility non-monotone, bisection may settle on
// a shorter prefix; the sweep pins exactly how often that happens.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/core/planner.h"
#include "src/core/strategy_io.h"
#include "src/workload/generators.h"

namespace btr {
namespace {

struct SweepCase {
  const char* kind;
  size_t nodes;
  uint32_t f;
  // Pinned outcome of the sweep over every mode.
  size_t modes;
  size_t non_monotone;   // modes whose feasibility is not monotone in L
  size_t differing;      // modes where bisection and the linear scan differ
  size_t slots_lost;     // sum over modes of (linear L - bisected L)
};

struct Tally {
  size_t modes = 0;
  size_t non_monotone = 0;
  size_t differing = 0;
  size_t slots_lost = 0;
};

std::string CaseName(const SweepCase& c) {
  return std::string(c.kind) + " nodes=" + std::to_string(c.nodes) + " f=" +
         std::to_string(c.f);
}

void PrintTo(const SweepCase& c, std::ostream* os) { *os << CaseName(c); }

// Plans the whole strategy, then probes every prefix of every mode with the
// parents the strategy builder used for it.
void ProbeEveryMode(const SweepCase& c, Tally* tally) {
  auto scenario = MakeNamedScenario(c.kind, c.nodes, /*seed=*/1);
  ASSERT_TRUE(scenario.ok()) << CaseName(c);
  const Scenario& s = *scenario;
  PlannerConfig config;
  config.max_faults = c.f;
  Planner planner(&s.topology, &s.workload, config);
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok()) << CaseName(c) << ": " << strategy.status().ToString();
  const size_t sink_count = s.workload.SinkIds().size();

  for (const FaultSet& faults : strategy->PlannedSets()) {
    const std::string where = CaseName(c) + " mode " + faults.ToString();
    std::vector<const Plan*> parents;
    for (NodeId x : faults.nodes()) {
      if (const Plan* parent = strategy->Lookup(faults.Without(x))) {
        parents.push_back(parent);
      }
    }
    const std::vector<TaskId> admitted = planner.sink_admission().Admit(faults);
    const Plan* plan = strategy->Lookup(faults);
    ASSERT_NE(plan, nullptr) << where;

    // The chosen plan serves a prefix of the admitted order.
    const size_t chosen = sink_count - plan->shed_sinks().size();
    ASSERT_LE(chosen, admitted.size()) << where;
    for (size_t i = 0; i < admitted.size(); ++i) {
      const bool shed = std::find(plan->shed_sinks().begin(), plan->shed_sinks().end(),
                                  admitted[i]) != plan->shed_sinks().end();
      EXPECT_EQ(shed, i >= chosen) << where << " sink " << s.workload.task(admitted[i]).name;
    }

    std::vector<bool> feasible(admitted.size() + 1);
    for (size_t len = 0; len <= admitted.size(); ++len) {
      const std::vector<TaskId> prefix(admitted.begin(), admitted.begin() + len);
      StatusOr<Plan> attempt = planner.PlanServing(faults, parents, prefix);
      feasible[len] = attempt.ok();
      if (len == chosen) {
        ASSERT_TRUE(attempt.ok()) << where << ": chosen prefix " << len << " infeasible";
        EXPECT_TRUE(*attempt->body == *plan->body) << where << ": plan differs from a "
                                                   << "single attempt at its prefix";
      }
    }
    if (chosen < admitted.size()) {
      EXPECT_FALSE(feasible[chosen + 1]) << where << ": prefix " << chosen + 1
                                         << " is feasible above the chosen one";
    }

    // Linear-scan oracle: the largest feasible prefix.
    size_t linear = admitted.size();
    while (!feasible[linear]) {
      --linear;  // chosen is feasible, so this stops at or above it
    }
    const bool monotone =
        std::all_of(feasible.begin(), feasible.begin() + linear + 1, [](bool b) { return b; });
    if (monotone) {
      EXPECT_EQ(chosen, linear) << where;
    }
    ++tally->modes;
    tally->non_monotone += monotone ? 0 : 1;
    tally->differing += chosen != linear ? 1 : 0;
    tally->slots_lost += linear - chosen;
  }
}

class ShedSearch : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ShedSearch, BisectionMatchesLinearScanWhereMonotone) {
  const SweepCase& c = GetParam();
  Tally tally;
  ProbeEveryMode(c, &tally);
  EXPECT_EQ(tally.modes, c.modes) << CaseName(c);
  EXPECT_EQ(tally.non_monotone, c.non_monotone) << CaseName(c);
  EXPECT_EQ(tally.differing, c.differing) << CaseName(c);
  EXPECT_EQ(tally.slots_lost, c.slots_lost) << CaseName(c);
}

// clang-format off
INSTANTIATE_TEST_SUITE_P(
    Generators, ShedSearch,
    ::testing::Values(
        //        kind          nodes f  modes nonmono differ lost
        SweepCase{"avionics",      8, 1,   13,     0,     0,    0},
        SweepCase{"avionics",     16, 2,  211,     0,     0,    0},
        SweepCase{"avionics",     24, 2,  407,     0,     0,    0},
        SweepCase{"scada",         8, 1,   11,     0,     0,    0},
        SweepCase{"scada",        24, 2,  352,     0,     0,    0},
        SweepCase{"convoy",        8, 1,    9,     0,     0,    0},
        SweepCase{"convoy",        8, 2,   37,     0,     0,    0},
        SweepCase{"convoy",       16, 1,   17,     1,     1,    3},
        SweepCase{"convoy",       16, 2,  137,     0,     0,    0},
        SweepCase{"convoy",       20, 2,  211,     2,     1,    3},
        SweepCase{"convoy",       24, 1,   25,     0,     0,    0},
        SweepCase{"convoy",       24, 2,  301,     0,     0,    0},
        SweepCase{"lossy-mesh",    9, 1,   10,     0,     0,    0},
        SweepCase{"lossy-mesh",   16, 2,  137,     0,     0,    0},
        SweepCase{"lossy-mesh",   24, 2,  301,     0,     0,    0},
        SweepCase{"random",        8, 1,   11,     0,     0,    0},
        SweepCase{"random",       24, 2,  352,     0,     0,    0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = std::string(info.param.kind) + "_" +
                         std::to_string(info.param.nodes) + "_f" +
                         std::to_string(info.param.f);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });
// clang-format on

// convoy 16 f=1's root mode is the sweep's non-monotone witness: of its 7
// admitted sinks, prefixes of length 0-2 and 5 are feasible, 3-4 and 6-7
// are not. Bisection (lengths 3, 1, 2) serves 2 sinks where the linear
// scan (7, 6, 5) served 5.
TEST(ShedSearch, NonMonotoneRootModeKeepsBisectedPrefix) {
  auto scenario = MakeNamedScenario("convoy", 16, /*seed=*/1);
  ASSERT_TRUE(scenario.ok());
  PlannerConfig config;
  config.max_faults = 1;
  Planner planner(&scenario->topology, &scenario->workload, config);
  auto root = planner.PlanForMode(FaultSet(), {});
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const size_t sinks = scenario->workload.SinkIds().size();
  EXPECT_EQ(sinks - root->shed_sinks().size(), 2u);

  const std::vector<TaskId> admitted = planner.sink_admission().Admit(FaultSet());
  std::string pattern;
  for (size_t len = 0; len <= admitted.size(); ++len) {
    const std::vector<TaskId> prefix(admitted.begin(), admitted.begin() + len);
    pattern += planner.PlanServing(FaultSet(), {}, prefix).ok() ? '1' : '0';
  }
  EXPECT_EQ(pattern, "11100100");
}

// The fleet-planning oracle: convoy nodes=140 f=1 (btrsim --scenario convoy
// --nodes 140 --f 1 --save-strategy) must save byte-identical strategy text
// to the linear shed loop the bisection replaced. Its sha256 is
// 37cbf4ee18736aeb79cf2edd1dbece1d95e8e62d2052221223492b4c11e9cc17; the
// test pins its length and HashString digest.
TEST(ShedSearch, Convoy140StrategyTextIsPinned) {
  auto scenario = MakeNamedScenario("convoy", 140, /*seed=*/1);
  ASSERT_TRUE(scenario.ok());
  PlannerConfig config;
  config.max_faults = 1;
  config.recovery_bound = Milliseconds(500);  // btrsim's default --recovery-ms
  Planner planner(&scenario->topology, &scenario->workload, config);
  auto strategy = planner.BuildStrategy();
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  EXPECT_EQ(strategy->mode_count(), 141u);
  const std::string text = SaveStrategy(*strategy, planner.graph(), planner.topology());
  EXPECT_EQ(text.size(), 1455754u);
  EXPECT_EQ(HashString(text), 0xff3c4f5af25d8f15ULL);
}

}  // namespace
}  // namespace btr
