#include "src/spec/experiment_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/core/strategy_text_internal.h"

namespace btr {

namespace {

using strategy_text::HexDigit;
using strategy_text::LineScanner;
using strategy_text::ParseU64;
using strategy_text::SplitFields;

uint64_t NowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct SweepCaches {
  StrategyCache strategies;
  ScenarioCache scenarios;
};

// One expanded job, start to finish. Failures land in rec->status; the
// caller keeps scheduling the rest of the fleet either way.
void RunJob(const ExperimentSpec& spec, bool use_cache, bool keep_report,
            SweepCaches* caches, SweepJobRecord* rec) {
  rec->name = spec.name;
  rec->max_faults = spec.max_faults;
  const uint64_t t0 = NowUs();

  // Scenario: memoized on the canonical scenario-section text. The job
  // takes a copy — BtrSystem owns (and under an edit phase, rewrites) its
  // scenario, so only the generator work is shared, never the object.
  Scenario scenario;
  if (use_cache) {
    const uint64_t key = HashString(SerializeSpecScenario(spec.scenario));
    StatusOr<ScenarioCache::ValuePtr> shared = caches->scenarios.GetOrCompute(
        key, [&]() -> StatusOr<ScenarioCache::ValuePtr> {
          StatusOr<Scenario> built = BuildScenario(spec.scenario);
          if (!built.ok()) {
            return built.status();
          }
          return std::make_shared<const Scenario>(std::move(built).value());
        });
    if (!shared.ok()) {
      rec->status = shared.status();
      return;
    }
    scenario = **shared;
  } else {
    StatusOr<Scenario> built = BuildScenario(spec.scenario);
    if (!built.ok()) {
      rec->status = built.status();
      return;
    }
    scenario = std::move(built).value();
  }

  BtrSystem system(std::move(scenario), MakeBtrConfig(spec));
  rec->planner_fingerprint = system.planner().Fingerprint();
  rec->scenario_fingerprint =
      FingerprintScenario(system.scenario().topology, system.scenario().workload);

  // Strategy: single-flight on the full planning identity. The miss leader
  // plans on its own system and publishes the shared immutable strategy;
  // everyone else (including callers that blocked on the in-flight
  // compile) adopts it after BtrSystem's provenance check.
  if (use_cache) {
    const StrategyCacheKey key{rec->planner_fingerprint, rec->scenario_fingerprint,
                               spec.max_faults};
    bool hit = false;
    StatusOr<StrategyCache::ValuePtr> strategy = caches->strategies.GetOrCompute(
        key,
        [&]() -> StatusOr<StrategyCache::ValuePtr> {
          Status planned = system.Plan();
          if (!planned.ok()) {
            return planned;
          }
          return system.shared_strategy();
        },
        &hit);
    if (!strategy.ok()) {
      rec->status = strategy.status();
      return;
    }
    rec->cache_hit = hit;
    if (hit) {
      Status adopted = system.AdoptStrategy(*strategy);
      if (!adopted.ok()) {
        rec->status = adopted;
        return;
      }
    }
  } else {
    Status planned = system.Plan();
    if (!planned.ok()) {
      rec->status = planned;
      return;
    }
  }
  const uint64_t t1 = NowUs();
  rec->plan_us = t1 - t0;
  rec->modes = system.strategy().mode_count();
  rec->strategy_format = system.strategy().provenance().source_format;

  StatusOr<ExperimentReport> report = RunExperimentPhases(system, spec);
  rec->run_us = NowUs() - t1;
  if (!report.ok()) {
    rec->status = report.status();
    return;
  }
  for (const RunReport& phase : report->phases) {
    rec->correct += phase.correctness.correct_instances;
    rec->expected += phase.correctness.total_instances;
    rec->worst_recovery = std::max(rec->worst_recovery, phase.correctness.max_recovery);
    rec->violated = rec->violated || phase.correctness.btr_violated;
    rec->events += phase.events_executed;
  }
  rec->fingerprint = FingerprintExperimentReport(*report);
  if (keep_report) {
    rec->report = std::move(report).value();
  }
}

}  // namespace

StatusOr<SweepServiceReport> RunSweepService(const ExperimentSpec& spec,
                                             const ServiceOptions& options) {
  StatusOr<std::vector<ExperimentSpec>> expanded = ExpandSweeps(spec);
  if (!expanded.ok()) {
    return expanded.status();
  }

  SweepServiceReport report;
  report.spec_name = spec.name;
  report.jobs.resize(expanded->size());

  size_t lanes = options.jobs;
  if (lanes == 0) {
    lanes = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  lanes = std::max<size_t>(1, std::min(lanes, expanded->size()));
  report.lanes = lanes;

  SweepCaches caches;
  const uint64_t t0 = NowUs();
  if (lanes == 1 || ThreadPool::OnWorkerThread()) {
    // Sequential path: every job inline on the calling thread, in
    // expansion order — with a cold cache this is the pre-service sweep
    // loop, byte for byte. Also taken for a service invoked *from* a pool
    // worker (a sweep inside a sweep): lanes would run inline there
    // anyway, so we skip reserving workers nobody would use.
    for (size_t i = 0; i < expanded->size(); ++i) {
      RunJob((*expanded)[i], options.cache, options.keep_reports, &caches,
             &report.jobs[i]);
    }
  } else {
    // `lanes` pool jobs pull indices from a shared counter. Reserve — not
    // merely ensure — that many workers: long-lived occupants (another
    // sweep) may hold pool threads, and a lane that never starts would
    // serialize the fleet. Everything nested under a job (planner waves,
    // simulation) runs inline on its lane.
    std::atomic<size_t> next{0};
    ThreadPool& pool = ThreadPool::Shared();
    pool.ReserveWorkers(lanes);
    pool.ParallelFor(lanes, [&](size_t) {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= expanded->size()) {
          return;
        }
        RunJob((*expanded)[i], options.cache, options.keep_reports, &caches,
               &report.jobs[i]);
      }
    });
  }
  report.wall_us = NowUs() - t0;

  for (const SweepJobRecord& job : report.jobs) {
    if (!job.status.ok()) {
      ++report.failures;
      continue;
    }
    report.total_events += job.events;
    report.combined_fingerprint = report.combined_fingerprint * 1099511628211ULL ^
                                  job.fingerprint;
  }
  report.strategy_cache = caches.strategies.stats();
  report.scenario_cache = caches.scenarios.stats();

  if (!options.results_path.empty()) {
    Status appended = AppendSweepResults(options.results_path, report, options);
    if (!appended.ok()) {
      return appended;
    }
  }
  return report;
}

std::string SerializeSweepResults(const SweepServiceReport& report,
                                  const ServiceOptions& options) {
  std::string out = "BTRR 1\n";
  out += "SWEEP " + report.spec_name + " jobs=" + std::to_string(report.lanes) +
         " cache=" + (options.cache ? "1" : "0") +
         " runs=" + std::to_string(report.jobs.size()) +
         " failures=" + std::to_string(report.failures) +
         " combined-fp=" + Hex16(report.combined_fingerprint) +
         " strategy-hits=" + std::to_string(report.strategy_cache.hits) +
         " strategy-misses=" + std::to_string(report.strategy_cache.misses) +
         " wall-us=" + std::to_string(report.wall_us) + '\n';
  for (const SweepJobRecord& job : report.jobs) {
    out += "JOB " + job.name + " ok=" + (job.status.ok() ? "1" : "0") +
           " fp=" + Hex16(job.fingerprint) +
           " planner-fp=" + Hex16(job.planner_fingerprint) +
           " scenario-fp=" + Hex16(job.scenario_fingerprint) +
           " f=" + std::to_string(job.max_faults) +
           " fmt=v" + std::to_string(job.strategy_format) +
           " cache=" + (job.cache_hit ? "hit" : "miss") +
           " plan-us=" + std::to_string(job.plan_us) +
           " run-us=" + std::to_string(job.run_us) + '\n';
  }
  out += "END\n";
  return out;
}

Status AppendSweepResults(const std::string& path, const SweepServiceReport& report,
                          const ServiceOptions& options) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return Status::InvalidArgument("cannot open results store '" + path + "'");
  }
  out << SerializeSweepResults(report, options);
  out.flush();
  if (!out) {
    return Status::Internal("write to results store '" + path + "' failed");
  }
  return Status::Ok();
}

namespace {

Status LineError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + message);
}

// "key=value" with canonical decimal value.
bool TakeKeyU64(std::string_view field, std::string_view key, uint64_t* value) {
  if (field.size() <= key.size() + 1 || field.substr(0, key.size()) != key ||
      field[key.size()] != '=') {
    return false;
  }
  return ParseU64(field.substr(key.size() + 1), value);
}

// "key=hhhh..." with exactly 16 lowercase hex digits.
bool TakeKeyHex16(std::string_view field, std::string_view key, uint64_t* value) {
  if (field.size() != key.size() + 1 + 16 || field.substr(0, key.size()) != key ||
      field[key.size()] != '=') {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < 16; ++i) {
    const int digit = HexDigit(field[key.size() + 1 + i]);
    if (digit < 0) {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *value = v;
  return true;
}

bool TakeKeyBool(std::string_view field, std::string_view key, bool* value) {
  uint64_t v = 0;
  if (!TakeKeyU64(field, key, &v) || v > 1) {
    return false;
  }
  *value = (v == 1);
  return true;
}

}  // namespace

StatusOr<std::vector<SweepResultsRecord>> ParseResultsStore(const std::string& text) {
  std::vector<SweepResultsRecord> out;
  LineScanner scan(text);
  std::string_view line;
  bool terminated = false;
  size_t line_no = 0;
  std::vector<std::string_view> fields;

  enum class State { kHeader, kSweep, kJobs };
  State state = State::kHeader;
  SweepResultsRecord current;

  while (scan.Next(&line, &terminated)) {
    ++line_no;
    if (!terminated) {
      return LineError(line_no, "results store truncated (unterminated line)");
    }
    if (!SplitFields(line, &fields)) {
      return LineError(line_no, "malformed line");
    }
    switch (state) {
      case State::kHeader: {
        if (fields.size() != 2 || fields[0] != "BTRR" || fields[1] != "1") {
          return LineError(line_no, "expected 'BTRR 1' block header");
        }
        current = SweepResultsRecord();
        state = State::kSweep;
        break;
      }
      case State::kSweep: {
        uint64_t lanes = 0;
        uint64_t runs = 0;
        uint64_t failures = 0;
        if (fields.size() != 10 || fields[0] != "SWEEP" ||
            !TakeKeyU64(fields[2], "jobs", &lanes) ||
            !TakeKeyBool(fields[3], "cache", &current.cache) ||
            !TakeKeyU64(fields[4], "runs", &runs) ||
            !TakeKeyU64(fields[5], "failures", &failures) ||
            !TakeKeyHex16(fields[6], "combined-fp", &current.combined_fingerprint) ||
            !TakeKeyU64(fields[7], "strategy-hits", &current.strategy_hits) ||
            !TakeKeyU64(fields[8], "strategy-misses", &current.strategy_misses) ||
            !TakeKeyU64(fields[9], "wall-us", &current.wall_us)) {
          return LineError(line_no, "malformed SWEEP record");
        }
        current.spec_name = std::string(fields[1]);
        current.lanes = static_cast<size_t>(lanes);
        current.runs = static_cast<size_t>(runs);
        current.failures = static_cast<size_t>(failures);
        state = State::kJobs;
        break;
      }
      case State::kJobs: {
        if (fields.size() == 1 && fields[0] == "END") {
          if (current.jobs.size() != current.runs) {
            return LineError(line_no, "SWEEP declared " + std::to_string(current.runs) +
                                          " runs but block has " +
                                          std::to_string(current.jobs.size()) +
                                          " JOB records");
          }
          out.push_back(std::move(current));
          state = State::kHeader;
          break;
        }
        SweepResultsRecord::Job job;
        uint64_t f = 0;
        if ((fields.size() != 10 && fields.size() != 11) || fields[0] != "JOB" ||
            !TakeKeyBool(fields[2], "ok", &job.ok) ||
            !TakeKeyHex16(fields[3], "fp", &job.fingerprint) ||
            !TakeKeyHex16(fields[4], "planner-fp", &job.planner_fingerprint) ||
            !TakeKeyHex16(fields[5], "scenario-fp", &job.scenario_fingerprint) ||
            !TakeKeyU64(fields[6], "f", &f) || f > UINT32_MAX) {
          return LineError(line_no, "malformed JOB record");
        }
        // fmt= postdates the first stores: records without it parse as
        // format 0 so appended history stays readable.
        size_t i = 7;
        if (fields.size() == 11) {
          std::string_view fmt = fields[7];
          uint64_t version = 0;
          if (fmt.substr(0, 5) != "fmt=v" || !ParseU64(fmt.substr(5), &version) ||
              version > UINT32_MAX) {
            return LineError(line_no, "malformed JOB record");
          }
          job.strategy_format = static_cast<uint32_t>(version);
          i = 8;
        }
        if ((fields[i] != "cache=hit" && fields[i] != "cache=miss") ||
            !TakeKeyU64(fields[i + 1], "plan-us", &job.plan_us) ||
            !TakeKeyU64(fields[i + 2], "run-us", &job.run_us)) {
          return LineError(line_no, "malformed JOB record");
        }
        job.name = std::string(fields[1]);
        job.max_faults = static_cast<uint32_t>(f);
        job.cache_hit = (fields[i] == "cache=hit");
        current.jobs.push_back(std::move(job));
        break;
      }
    }
  }
  if (state != State::kHeader) {
    return LineError(line_no, "results store truncated (unclosed block)");
  }
  return out;
}

}  // namespace btr
