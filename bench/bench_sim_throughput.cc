// End-to-end simulation data-plane throughput.
//
// Unlike the experiment benches (which measure the *modeled* system), this
// measures the *simulator itself*: host wall-clock and executed events/sec
// for a full BtrSystem::Run over an E7-scale avionics scenario (8 flight
// computers, f=2), both fault-free and with a crash plus a value-corruption
// fault so the evidence/recovery path is on the clock.
//
// Emits one `BENCH_JSON {...}` line per row; ci/run_benches.sh collects
// them into BENCH_runtime.json so the perf trajectory is recorded per PR.
// The report fingerprint is printed alongside: it must not change when only
// the data plane's implementation (not its behavior) is optimized.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench/bench_util.h"

namespace btr {
namespace {

struct Options {
  std::string preset = "e7";  // "e7" or "smoke"
  uint64_t periods = 0;       // 0 = preset default
  uint64_t seed = 1;
  int reps = 3;
};

struct PresetSpec {
  size_t compute_nodes;
  uint32_t f;
  uint64_t periods;
};

PresetSpec SpecFor(const std::string& preset) {
  if (preset == "smoke") {
    return PresetSpec{6, 1, 100};
  }
  // E7-scale: 8 interchangeable flight computers (plus pinned I/O nodes),
  // f=2 (79 modes), long enough that the per-period hot path dominates.
  return PresetSpec{8, 2, 1500};
}

struct RowResult {
  double best_wall_ms = 0.0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  uint64_t fingerprint = 0;
};

RowResult Measure(BtrSystem& system, uint64_t periods, int reps) {
  RowResult r;
  r.best_wall_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto report = system.Run(periods);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (!report.ok()) {
      std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
      std::exit(1);
    }
    const uint64_t fp = FingerprintRunReport(*report);
    if (i == 0) {
      r.fingerprint = fp;
    } else if (fp != r.fingerprint) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: rep %d fingerprint %016" PRIx64
                           " != %016" PRIx64 "\n",
                   i, fp, r.fingerprint);
      std::exit(1);
    }
    if (wall_ms < r.best_wall_ms) {
      r.best_wall_ms = wall_ms;
      r.events = report->events_executed;
      r.events_per_sec = static_cast<double>(report->events_executed) / (wall_ms / 1e3);
    }
  }
  return r;
}

void Run(const Options& opts) {
  PrintHeader("sim data-plane throughput",
              "host events/sec of BtrSystem::Run on the E7-style preset (best of " +
                  std::to_string(opts.reps) + " reps; fingerprint must be seed-stable)");

  const PresetSpec spec = SpecFor(opts.preset);
  const uint64_t periods = opts.periods != 0 ? opts.periods : spec.periods;

  Scenario scenario = MakeAvionicsScenario(spec.compute_nodes);

  BtrConfig config = DefaultBtrConfig(spec.f, Milliseconds(500), opts.seed);
  BtrSystem system(std::move(scenario), config);
  if (!system.Plan().ok()) {
    std::fprintf(stderr, "planning failed\n");
    std::exit(1);
  }

  const SimDuration period_len = system.scenario().workload.period();
  Table table({"variant", "periods", "events", "wall (best)", "events/sec", "fingerprint"});
  auto emit = [&](const char* variant, const RowResult& r) {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
    table.AddRow({std::string(variant), CellInt(static_cast<int64_t>(periods)),
                  CellInt(static_cast<int64_t>(r.events)), CellDuration(r.best_wall_ms * 1e6),
                  CellDouble(r.events_per_sec, 0), std::string(fp)});
    std::printf("BENCH_JSON {\"bench\":\"sim_throughput\",\"preset\":\"%s\","
                "\"variant\":\"%s\",\"periods\":%" PRIu64 ",\"events\":%" PRIu64 ","
                "\"wall_ms\":%.3f,\"events_per_sec\":%.0f,\"fingerprint\":\"%s\"}\n",
                opts.preset.c_str(), variant, periods, r.events, r.best_wall_ms,
                r.events_per_sec, fp);
  };

  // Fault-free: the pure dispatch/heartbeat/network hot path.
  system.ClearFaults();
  emit("fault-free", Measure(system, periods, opts.reps));

  // Faulty: a crash and a value corruption, so detection, evidence
  // distribution, verification, and mode switching are all exercised.
  const NodeId victim = MostCriticalPrimaryHost(system);
  NodeId corrupt;
  for (uint32_t n = 0; n < system.scenario().topology.node_count(); ++n) {
    const Plan* root = system.strategy().Lookup(FaultSet());
    bool hosts_compute = false;
    for (uint32_t aug = 0; aug < system.planner().graph().size(); ++aug) {
      if (root->placement()[aug] == NodeId(n)) {
        hosts_compute = true;
        break;
      }
    }
    if (hosts_compute && NodeId(n) != victim) {
      corrupt = NodeId(n);
      break;
    }
  }
  system.ClearFaults();
  FaultInjection crash;
  crash.node = victim;
  crash.manifest_at = static_cast<SimTime>(periods / 3) * period_len;
  crash.behavior = FaultBehavior::kCrash;
  system.AddFault(crash);
  if (corrupt.valid()) {
    FaultInjection corruption;
    corruption.node = corrupt;
    corruption.manifest_at = static_cast<SimTime>(2 * periods / 3) * period_len;
    corruption.behavior = FaultBehavior::kValueCorruption;
    system.AddFault(corruption);
  }
  emit("faulty", Measure(system, periods, opts.reps));

  // Shard-count scaling: the identical fault-free run at shard counts
  // {1, 2, 4, 8}. Windows run sequentially, so the curve is the window
  // bookkeeping cost. The fingerprint column is the point, not garnish —
  // any divergence across shard counts is a determinism bug and fails the
  // bench.
  system.ClearFaults();
  const unsigned host_cores = std::thread::hardware_concurrency();
  uint64_t scale_fp = 0;
  double s1_events_per_sec = 0.0;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    system.set_shards(shards);
    const RowResult r = Measure(system, periods, opts.reps);
    if (shards == 1) {
      scale_fp = r.fingerprint;
      s1_events_per_sec = r.events_per_sec;
    } else if (r.fingerprint != scale_fp) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: shards=%u fingerprint %016" PRIx64
                   " != shards=1 fingerprint %016" PRIx64 "\n",
                   shards, r.fingerprint, scale_fp);
      std::exit(1);
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
    char variant[32];
    std::snprintf(variant, sizeof(variant), "parallel-s%u", shards);
    table.AddRow({std::string(variant), CellInt(static_cast<int64_t>(periods)),
                  CellInt(static_cast<int64_t>(r.events)), CellDuration(r.best_wall_ms * 1e6),
                  CellDouble(r.events_per_sec, 0), std::string(fp)});
    std::printf("BENCH_JSON {\"bench\":\"sim_parallel\",\"preset\":\"%s\","
                "\"shards\":%u,\"host_cores\":%u,\"periods\":%" PRIu64
                ",\"events\":%" PRIu64 ",\"wall_ms\":%.3f,\"events_per_sec\":%.0f,"
                "\"speedup_vs_s1\":%.2f,\"fingerprint\":\"%s\"}\n",
                opts.preset.c_str(), shards, host_cores, periods, r.events, r.best_wall_ms,
                r.events_per_sec,
                s1_events_per_sec > 0.0 ? r.events_per_sec / s1_events_per_sec : 0.0, fp);
  }
  system.set_shards(0);

  std::printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace btr

int main(int argc, char** argv) {
  btr::Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--preset=", 9) == 0) {
      opts.preset = arg + 9;
    } else if (std::strncmp(arg, "--periods=", 10) == 0) {
      opts.periods = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      opts.reps = std::atoi(arg + 7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--preset=e7|smoke] [--periods=N] [--seed=S] [--reps=R]\n", arg);
      return 2;
    }
  }
  btr::Run(opts);
  return 0;
}
