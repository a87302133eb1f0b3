#include "src/core/monitor.h"

#include <algorithm>
#include <cassert>

namespace btr {

Monitor::Monitor(const Dataflow* workload, const Strategy* strategy,
                 const AdversarySpec* adversary, SimDuration recovery_bound)
    : workload_(workload),
      strategy_(strategy),
      adversary_(adversary),
      recovery_bound_(recovery_bound),
      oracle_(workload) {}

void Monitor::RecordSinkOutput(TaskId sink, uint64_t period, uint64_t digest, SimTime at) {
  // Keep the first output per instance; duplicates would only arise from a
  // faulty sink node re-actuating, which the physical world would also see
  // first-command.
  observations_.Emplace(PackIdPeriod(sink.value(), period),
                        SinkObservation{sink, period, digest, at});
}

bool MissPattern::SatisfiesMK(uint64_t m, uint64_t k) const {
  if (k == 0 || m > k) {
    return false;
  }
  if (correct.size() < k) {
    return misses <= correct.size() - std::min<uint64_t>(m, correct.size());
  }
  uint64_t good = 0;
  for (size_t i = 0; i < correct.size(); ++i) {
    good += correct[i] ? 1 : 0;
    if (i >= k) {
      good -= correct[i - k] ? 1 : 0;
    }
    if (i + 1 >= k && good < m) {
      return false;
    }
  }
  return true;
}

MissPattern Monitor::SinkMissPattern(TaskId sink, uint64_t periods) const {
  MissPattern pattern;
  const SimDuration period_len = workload_->period();
  const TaskSpec& spec = workload_->task(sink);
  uint64_t run = 0;
  for (uint64_t p = 0; p < periods; ++p) {
    const SimTime deadline = static_cast<SimTime>(p) * period_len + spec.relative_deadline;
    const Plan* plan = strategy_->Lookup(ManifestedBefore(deadline));
    if (plan == nullptr || !plan->ServesSink(sink)) {
      continue;  // shed: not an expected instance
    }
    const SinkObservation* obs = observations_.Find(PackIdPeriod(sink.value(), p));
    const bool ok = obs != nullptr && obs->digest == oracle_.Golden(sink, p) &&
                    obs->at <= deadline;
    pattern.correct.push_back(ok);
    if (ok) {
      run = 0;
    } else {
      ++pattern.misses;
      ++run;
      pattern.longest_miss_run = std::max(pattern.longest_miss_run, run);
    }
  }
  return pattern;
}

FaultSet Monitor::ManifestedBefore(SimTime t) const {
  FaultSet set;
  for (const FaultInjection& inj : adversary_->injections()) {
    if (inj.manifest_at < t) {
      set.Add(inj.node);
    }
  }
  return set;
}

double Monitor::PlanUtility(const FaultSet& faults) const {
  const Plan* plan = strategy_->Lookup(faults);
  if (plan == nullptr) {
    return 0.0;  // beyond f: no guarantees
  }
  return plan->utility();
}

CorrectnessReport Monitor::Evaluate(uint64_t periods) const {
  CorrectnessReport report;
  const SimDuration period_len = workload_->period();

  // Manifestation timeline, sorted.
  std::vector<std::pair<SimTime, NodeId>> manifests;
  for (const FaultInjection& inj : adversary_->injections()) {
    manifests.emplace_back(inj.manifest_at, inj.node);
  }
  std::sort(manifests.begin(), manifests.end());
  // Deduplicate by node (first manifestation counts).
  {
    std::vector<std::pair<SimTime, NodeId>> uniq;
    for (const auto& m : manifests) {
      bool seen = false;
      for (const auto& u : uniq) {
        if (u.second == m.second) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        uniq.push_back(m);
      }
    }
    manifests = std::move(uniq);
  }
  for (const auto& [at, node] : manifests) {
    RecoveryMeasurement rm;
    rm.node = node;
    rm.manifested_at = at;
    rm.last_bad_output = at;
    report.recoveries.push_back(rm);
  }

  std::vector<SimTime> bad_instants;

  for (uint64_t p = 0; p < periods; ++p) {
    for (TaskId sink : workload_->SinkIds()) {
      const TaskSpec& spec = workload_->task(sink);
      const SimTime deadline = static_cast<SimTime>(p) * period_len + spec.relative_deadline;
      const FaultSet manifested = ManifestedBefore(deadline);
      const Plan* plan = strategy_->Lookup(manifested);

      // An actuator whose own node is compromised is outside the system
      // boundary: no distributed protocol can stop a faulty node from
      // driving hardware it physically owns, so its outputs are not
      // evaluated (the paper's threat model gives the adversary that node).
      if (manifested.Contains(spec.pinned_node)) {
        ++report.shed_instances;
        continue;
      }
      const bool expected = plan != nullptr && plan->ServesSink(sink);
      const SinkObservation* obs = observations_.Find(PackIdPeriod(sink.value(), p));
      if (!expected) {
        // A shed sink may correctly fail *silently* (Definition 3.1's
        // mixed-criticality extension), but an actuation an honest sink node
        // does perform must still be the right command: garbage counts.
        if (obs == nullptr || obs->digest == oracle_.Golden(sink, p)) {
          ++report.shed_instances;
        } else {
          ++report.total_instances;
          ++report.incorrect_value;
          bad_instants.push_back(deadline);
        }
        continue;
      }
      ++report.total_instances;
      bool correct = false;
      if (obs == nullptr) {
        ++report.incorrect_missing;
      } else if (obs->digest != oracle_.Golden(sink, p)) {
        ++report.incorrect_value;
      } else if (obs->at > deadline) {
        ++report.incorrect_late;
      } else {
        correct = true;
        ++report.correct_instances;
        report.sink_latency.Add(
            static_cast<double>(obs->at - static_cast<SimTime>(p) * period_len));
      }
      if (!correct) {
        bad_instants.push_back(deadline);
      }
    }
  }

  // Attribute each bad instant to the most recent manifestation before it
  // and check Definition 3.1.
  for (SimTime bad : bad_instants) {
    RecoveryMeasurement* owner = nullptr;
    for (RecoveryMeasurement& rm : report.recoveries) {
      if (rm.manifested_at <= bad) {
        owner = &rm;  // manifests are sorted ascending
      }
    }
    if (owner == nullptr) {
      // Incorrect output with no prior fault at all: unconditional violation.
      report.btr_violated = true;
      continue;
    }
    ++owner->bad_instances;
    owner->last_bad_output = std::max(owner->last_bad_output, bad);
    if (bad - owner->manifested_at > recovery_bound_) {
      report.btr_violated = true;
    }
  }
  for (RecoveryMeasurement& rm : report.recoveries) {
    rm.recovery_time = rm.last_bad_output - rm.manifested_at;
    report.max_recovery = std::max(report.max_recovery, rm.recovery_time);
    report.total_bad_time += rm.recovery_time;
  }
  return report;
}

}  // namespace btr
