// Lifecycle benchmark program: one process, one client, closed loop.
//
// Reads a generated .btrx experiment spec and drives it through the public
// lifecycle API exactly as RunExperiment does (ParseExperimentSpec ->
// BuildScenario -> BtrSystem -> Plan -> per phase ApplyDelta + Run), timing
// every call from outside. Each lifecycle call starts after the previous
// one returns. Shard count, planner threads and the shard executor are left
// at the library defaults.
//
//   lifecycle_bench --spec FILE --seconds S --trace 0|1 --out DIR
//
// Untraced (--trace 0): repeats the lifecycle while another repetition fits
// in S seconds (at least three times) and prints one JSON object with the
// timings of every repetition, the simulated outcome, the operation counts
// and the correctness checks. run.py turns that into the benchmark's metrics.
//
// Traced (--trace 1): alternates untraced and traced repetitions of the same
// spec. A traced repetition opens a span around every lifecycle call, and
// adds shadow calls on the same inputs for the layers the facades wrap
// together (Rebuild, SaveStrategy, BuildStrategyUpdate, EncodeStrategyImage,
// slice validate/map). The first one also replays every mode serially
// through PlanForMode. Spans are kept in memory and written at exit to
// DIR/trace.json (Chrome trace-event JSON); the per-layer counters go into
// the printed object.
//
// Every run also replays the lifecycle once at shards=1: a correctness check,
// and the baseline of sim.auto_vs_1shard.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (a program bug), 2 on a usage or input error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/stats.h"
#include "src/core/btr_system.h"
#include "src/core/strategy_builder.h"
#include "src/core/strategy_io.h"
#include "src/core/strategy_patch.h"
#include "src/fmt/strategy_binary.h"
#include "src/spec/experiment_runner.h"
#include "src/spec/experiment_spec.h"

namespace {

using btr::ExperimentReport;
using btr::ExperimentSpec;
using btr::RunReport;
using Clock = std::chrono::steady_clock;

// Extra samples of each short call after every repetition, and the time
// under which a call counts as short: Plan and set-up under kShortS, the
// phase loop under kShortPhasesS (plan_fleet's ~0.1 s of Run, far below
// long_run's and edit_rollout's seconds).
constexpr int kBatch = 10;
constexpr double kShortS = 0.1;
constexpr double kShortPhasesS = 0.5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans -----------------------------------------------------------------

// In-memory span recorder. A span is opened around one call into a layer and
// closed when the call returns; its parent is the span open at the time.
class Tracer {
 public:
  struct Span {
    std::string name;   // "layer:call"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int phase = -1;     // experiment phase, -1 outside the phase loop
  };

  Tracer() : origin_(Clock::now()) {}

  int Open(std::string name, int phase) {
    Span span;
    span.name = std::move(name);
    span.start_ns = Now();
    span.parent = open_.empty() ? -1 : open_.back();
    span.phase = phase;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int id) {
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  // Self time per layer (the text before ':' in a span name): a span's
  // duration minus the part its children cover.
  std::map<std::string, double> LayerSelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find(':'));
      out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find(':'));
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"phase\":%d}}%s\n",
                    s.name.c_str(), layer.c_str(), static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.phase,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span when a tracer is attached; costs one branch otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int phase = -1) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Open(name, phase);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// --- one lifecycle ---------------------------------------------------------

// Calls fn() inside a span named `name` (when tracing) and adds its wall time
// to *seconds; returns what fn returns.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, int phase, double* seconds, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  ScopedSpan span(tracer, name, phase);
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
    *seconds += SecondsSince(t0);
  } else {
    auto result = fn();
    *seconds += SecondsSince(t0);
    return result;
  }
}


// Counters and shadow timings gathered only by traced repetitions.
struct LayerCounters {
  std::map<std::string, double> values;  // metric name -> summed value
  std::vector<double> validate_ms;
  std::vector<double> map_ms;
  void Add(const std::string& name, double v) { values[name] += v; }
  // Accumulator for `name`; map nodes are stable, so the pointer stays valid.
  double* Slot(const std::string& name) { return &values[name]; }
};

struct Lifecycle {
  double parse_s = 0;
  double build_s = 0;
  double setup_s = 0;
  double plan_s = 0;
  double edit_s = 0;
  double run_s = 0;
  double wall_s = 0;     // excludes the traced-only shadow calls
  double shadow_s = 0;   // traced-only shadow calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;      // Run reports with btr_violated
  uint64_t stalled_rollouts = 0;  // staged rollouts that did not reach every node
  std::string error;            // first call that returned an error
  ExperimentReport report;
  btr::PlannerMetrics plan_metrics;
  std::shared_ptr<const btr::Strategy> planned;  // strategy right after Plan()
  // Per edit: the staged update's target blob as shipped, and the text
  // fingerprint it must decode to. Kept only when asked for.
  std::vector<std::string> target_blobs;
  std::vector<uint64_t> target_fps;
};

// The traced-only shadow calls for one edit: the work ApplyDelta does
// internally, repeated on the same inputs so each layer gets its own span.
void ShadowApplyDelta(const btr::BtrSystem& system, const btr::StrategyDelta& delta,
                      Tracer* tracer, int phase, LayerCounters* layers) {
  btr::Scenario next;
  if (!btr::ApplyDelta(system.scenario().topology, system.scenario().workload, delta,
                       &next.topology, &next.workload)
           .ok()) {
    return;
  }
  btr::Planner next_planner(&next.topology, &next.workload, system.config().planner);
  btr::StrategyBuilder builder(&next_planner, system.config().planner.planner_threads);
  btr::StatusOr<btr::Strategy> rebuilt =
      Timed(tracer, "rebuild:StrategyBuilder::Rebuild", phase, layers->Slot("rebuild.s"),
            [&] { return builder.Rebuild(system.strategy(), system.planner(), delta); });
  if (!rebuilt.ok()) {
    return;
  }
  const btr::PlannerMetrics m = next_planner.metrics();
  layers->Add("rebuild.dirty_modes", static_cast<double>(m.rebuild_dirty_modes));
  layers->Add("rebuild.clean_modes", static_cast<double>(m.rebuild_clean_modes));

  std::string base;
  std::string target;
  Timed(tracer, "patch:SaveStrategy", phase, layers->Slot("patch.save_s"), [&] {
    base = btr::SaveStrategy(system.strategy(), system.planner().graph(),
                             system.scenario().topology);
    target = btr::SaveStrategy(*rebuilt, next_planner.graph(), next.topology);
  });
  btr::StatusOr<btr::StrategyUpdate> update =
      Timed(tracer, "patch:BuildStrategyUpdate", phase, layers->Slot("patch.update_s"),
            [&] { return btr::BuildStrategyUpdate(base, target, system.config().wire_format); });
  if (update.ok()) {
    for (size_t n = 0; n < update->patch_slices.size(); ++n) {
      layers->Add("patch.slice_bytes_sum", static_cast<double>(update->patch_slices[n].size()));
      layers->Add("patch.full_bytes_sum", static_cast<double>(update->full_slices[n].size()));
      layers->Add("patch.slices", 1);
    }
  }
  btr::StatusOr<std::string> image =
      Timed(tracer, "fmt:EncodeStrategyImage", phase, layers->Slot("fmt.encode_s"),
            [&] { return btr::fmt::EncodeStrategyImage(target); });
  if (image.ok()) {
    layers->Add("fmt.image_bytes", static_cast<double>(image->size()));
    layers->Add("fmt.text_bytes", static_cast<double>(target.size()));
  }
}

// The traced-only install-side shadow: validate and map every staged
// full-slice image, as a node does before swapping it in.
void ShadowValidateMap(const btr::StrategyUpdate& update, Tracer* tracer, int phase,
                       LayerCounters* layers) {
  for (const std::string& slice : update.full_slices) {
    if (!btr::fmt::IsV4Image(slice)) {
      continue;
    }
    double validate_s = 0;
    Timed(tracer, "fmt:ValidateStrategyImage", phase, &validate_s,
          [&] { (void)btr::fmt::ValidateStrategyImage(slice); });
    layers->validate_ms.push_back(validate_s * 1e3);
    double map_s = 0;
    Timed(tracer, "fmt:BinaryStrategyView::Map", phase, &map_s,
          [&] { (void)btr::fmt::BinaryStrategyView::Map(slice); });
    layers->map_ms.push_back(map_s * 1e3);
  }
}

struct LifecycleOptions {
  Tracer* tracer = nullptr;          // non-null: record spans, run shadows
  LayerCounters* layers = nullptr;   // required when tracer is set
  bool keep_targets = false;         // capture staged target blobs
  uint32_t shards = 0;               // 0: as the spec says (default: auto)
  // Adopt this strategy instead of planning (the shards=1 replay).
  std::shared_ptr<const btr::Strategy> adopt;
};

// Runs the spec's whole lifecycle once. Mirrors RunExperiment +
// RunExperimentPhases call for call, so its experiment fingerprint equals
// `example_btrsim --spec` on the same file.
Lifecycle RunLifecycle(const std::string& spec_text, const LifecycleOptions& opt) {
  Lifecycle out;
  Tracer* tracer = opt.tracer;
  const Clock::time_point start = Clock::now();

  const btr::StatusOr<ExperimentSpec> parsed =
      Timed(tracer, "spec:ParseExperimentSpec", -1, &out.parse_s,
            [&] { return btr::ParseExperimentSpec(spec_text); });
  if (!parsed.ok()) {
    out.error = "parse: " + parsed.status().ToString();
    return out;
  }
  const ExperimentSpec& spec = *parsed;
  btr::StatusOr<btr::Scenario> scenario =
      Timed(tracer, "workload:BuildScenario", -1, &out.build_s,
            [&] { return btr::BuildScenario(spec.scenario); });
  if (!scenario.ok()) {
    out.error = "scenario: " + scenario.status().ToString();
    return out;
  }
  btr::BtrConfig config = btr::MakeBtrConfig(spec);
  if (opt.shards != 0) {
    config.shards = opt.shards;
  }
  std::optional<btr::BtrSystem> system;
  double construct_s = 0;
  Timed(tracer, "planner:BtrSystem::BtrSystem", -1, &construct_s,
        [&] { system.emplace(std::move(*scenario), config); });
  out.setup_s = SecondsSince(start);

  ++out.attempted;
  const btr::Status planned =
      Timed(tracer, "planner:BtrSystem::Plan", -1, &out.plan_s, [&] {
        return opt.adopt != nullptr ? system->AdoptStrategy(opt.adopt) : system->Plan();
      });
  if (!planned.ok()) {
    ++out.failed;
    out.error = "plan: " + planned.ToString();
    return out;
  }
  out.plan_metrics = system->planner().metrics();
  out.planned = system->shared_strategy();

  // Resolved once against the fault-free plan, as RunExperimentPhases does.
  const btr::NodeId critical_primary = btr::ResolveCriticalPrimary(*system);
  out.report.name = spec.name;
  for (size_t i = 0; i < spec.phases.size(); ++i) {
    const btr::SpecPhase& phase = spec.phases[i];
    const int pid = static_cast<int>(i);
    ScopedSpan phase_span(tracer, "lifecycle:phase", pid);
    system->ClearFaults();
    for (const btr::SpecFault& fault : phase.faults) {
      btr::FaultInjection inj = fault.injection;
      if (fault.critical_primary) {
        inj.node = critical_primary;
      }
      system->AddFault(inj);
    }
    if (phase.has_edit()) {
      if (tracer != nullptr) {
        Timed(nullptr, "", pid, &out.shadow_s,
              [&] { ShadowApplyDelta(*system, phase.edit, tracer, pid, opt.layers); });
      }
      ++out.attempted;
      const btr::Status applied =
          Timed(tracer, "edit:BtrSystem::ApplyDelta", pid, &out.edit_s,
                [&] { return system->ApplyDelta(phase.edit, phase.edit_at); });
      if (!applied.ok()) {
        ++out.failed;
        out.error = "phase " + std::to_string(i) + " edit: " + applied.ToString();
        return out;
      }
      const btr::StrategyUpdate* update = system->staged_update();
      if (opt.keep_targets && update != nullptr) {
        out.target_blobs.push_back(update->target_blob);
        out.target_fps.push_back(update->target_fp);
      }
      if (tracer != nullptr && update != nullptr) {
        Timed(nullptr, "", pid, &out.shadow_s,
              [&] { ShadowValidateMap(*update, tracer, pid, opt.layers); });
      }
    }
    ++out.attempted;
    btr::StatusOr<RunReport> run = Timed(tracer, "sim:BtrSystem::Run", pid, &out.run_s,
                                         [&] { return system->Run(phase.periods); });
    if (!run.ok()) {
      ++out.failed;
      out.error = "phase " + std::to_string(i) + ": " + run.status().ToString();
      return out;
    }
    const bool violated = run->correctness.btr_violated;
    const bool stalled = phase.has_edit() && run->install.completed_at == btr::kSimTimeNever;
    out.violations += violated ? 1 : 0;
    out.stalled_rollouts += stalled ? 1 : 0;
    out.failed += (violated || stalled) ? 1 : 0;
    out.report.phases.push_back(std::move(*run));
  }
  out.wall_s = SecondsSince(start) - out.shadow_s;
  return out;
}

// --- simulated outcome -----------------------------------------------------

struct Outcome {
  uint64_t correct = 0;
  uint64_t expected = 0;
  uint64_t shed = 0;
  uint64_t missed = 0;  // wrong + late + missing
  uint64_t events = 0;
  double simulated_s = 0;
  double recovery_ms_max = 0;
  double latency_ms_p99 = 0;
  uint64_t rollouts = 0;
  uint64_t rollouts_complete = 0;
  double rollout_ms_p50 = 0;
};

Outcome Summarize(const ExperimentReport& report) {
  Outcome o;
  btr::Samples latency;
  btr::Samples rollout_ms;
  for (const RunReport& r : report.phases) {
    const btr::CorrectnessReport& c = r.correctness;
    o.correct += c.correct_instances;
    o.expected += c.total_instances;
    o.shed += c.shed_instances;
    o.missed += c.incorrect_value + c.incorrect_late + c.incorrect_missing;
    o.events += r.events_executed;
    o.simulated_s += static_cast<double>(r.simulated_time) * 1e-9;
    o.recovery_ms_max =
        std::max(o.recovery_ms_max, static_cast<double>(c.max_recovery) * 1e-6);
    for (double v : c.sink_latency.values()) {
      latency.Add(v * 1e-6);
    }
    if (r.install.started_at != btr::kSimTimeNever) {
      ++o.rollouts;
      if (r.install.completed_at != btr::kSimTimeNever) {
        ++o.rollouts_complete;
        rollout_ms.Add(static_cast<double>(r.install.completed_at - r.install.started_at) *
                       1e-6);
      }
    }
  }
  o.latency_ms_p99 = latency.empty() ? 0.0 : latency.Percentile(0.99);
  o.rollout_ms_p50 = rollout_ms.empty() ? 0.0 : rollout_ms.Percentile(0.5);
  return o;
}

// --- output ----------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') {
        esc += '\\';
      }
      esc += (c == '\n') ? ' ' : c;
    }
    Raw(key, "\"" + esc + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string RepJson(const Lifecycle& l) {
  JsonObject o;
  o.Num("parse_s", l.parse_s);
  o.Num("build_s", l.build_s);
  o.Num("setup_s", l.setup_s);
  o.Num("plan_s", l.plan_s);
  o.Num("edit_s", l.edit_s);
  o.Num("run_s", l.run_s);
  o.Num("wall_s", l.wall_s);
  return o.str();
}

std::string HexFingerprint(const ExperimentReport& report) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(btr::FingerprintExperimentReport(report)));
  return buf;
}

// Every staged target blob must decode to the text it fingerprints as, and
// that text must survive EncodeStrategyImage / DecodeStrategyImage
// byte-for-byte (re-encoding reproduces the shipped image exactly).
bool TargetsRoundTrip(const Lifecycle& l, std::string* why) {
  for (size_t i = 0; i < l.target_blobs.size(); ++i) {
    const std::string& blob = l.target_blobs[i];
    std::string text = blob;
    if (btr::fmt::IsV4Image(blob)) {
      btr::StatusOr<std::string> decoded = btr::fmt::DecodeStrategyImage(blob);
      if (!decoded.ok()) {
        *why = "target " + std::to_string(i) + " does not decode";
        return false;
      }
      text = *decoded;
    }
    if (btr::FingerprintStrategyText(text) != l.target_fps[i]) {
      *why = "target " + std::to_string(i) + " fingerprint mismatch";
      return false;
    }
    btr::StatusOr<std::string> image = btr::fmt::EncodeStrategyImage(text);
    if (!image.ok()) {
      *why = "target " + std::to_string(i) + " does not encode";
      return false;
    }
    btr::StatusOr<std::string> back = btr::fmt::DecodeStrategyImage(*image);
    if (!back.ok() || *back != text || (btr::fmt::IsV4Image(blob) && *image != blob)) {
      *why = "target " + std::to_string(i) + " does not round-trip";
      return false;
    }
  }
  return true;
}

// Serial replay of every planned mode through Planner::PlanForMode, level by
// level with the real strategy's plans as parents, timing each call.
void ReplayModesSerially(const btr::BtrSystem& system, Tracer* tracer, LayerCounters* layers) {
  std::vector<btr::FaultSet> modes = system.strategy().PlannedSets();
  std::stable_sort(modes.begin(), modes.end(),
                   [](const btr::FaultSet& a, const btr::FaultSet& b) {
                     return a.size() < b.size();
                   });
  btr::Samples mode_ms;
  double serial_s = 0;
  ScopedSpan span(tracer, "planner:PlanForMode-serial-replay");
  for (const btr::FaultSet& faults : modes) {
    std::vector<const btr::Plan*> parents;
    for (btr::NodeId x : faults.nodes()) {
      if (const btr::Plan* parent = system.strategy().Lookup(faults.Without(x))) {
        parents.push_back(parent);
      }
    }
    const Clock::time_point t0 = Clock::now();
    (void)system.planner().PlanForMode(faults, parents);
    const double s = SecondsSince(t0);
    serial_s += s;
    mode_ms.Add(s * 1e3);
  }
  layers->Add("planner.serial_s", serial_s);
  layers->Add("planner.mode_ms_p50", mode_ms.empty() ? 0.0 : mode_ms.Percentile(0.5));
  layers->Add("planner.mode_ms_p90", mode_ms.empty() ? 0.0 : mode_ms.Percentile(0.9));
}

void AddRunCounters(const ExperimentReport& report, LayerCounters* layers) {
  for (const RunReport& r : report.phases) {
    const btr::NetworkStats& n = r.network;
    layers->Add("net.packets_sent", static_cast<double>(n.packets_sent));
    layers->Add("net.packets_delivered", static_cast<double>(n.packets_delivered));
    layers->Add("net.drops_backlog", static_cast<double>(n.packets_dropped_backlog));
    layers->Add("net.drops_loss", static_cast<double>(n.packets_dropped_loss));
    layers->Add("net.bytes_control",
                static_cast<double>(n.bytes_by_class[static_cast<int>(btr::TrafficClass::kControl)]));
    layers->Add("net.link_bytes", static_cast<double>(n.total_link_bytes));
    const btr::DissemAgentStats& d = r.install.dissem;
    layers->Add("dissem.beacons_sent", static_cast<double>(d.beacons_sent));
    layers->Add("dissem.beacons_suppressed", static_cast<double>(d.beacons_suppressed));
    layers->Add("dissem.chunks_sent", static_cast<double>(d.chunks_sent));
    layers->Add("dissem.resumes", static_cast<double>(d.resumes));
    layers->Add("dissem.fallbacks", static_cast<double>(d.fallbacks));
    const btr::NodeStats& s = r.total_node_stats;
    layers->Add("runtime.busy_ms", static_cast<double>(s.busy) * 1e-6);
    layers->Add("runtime.crypto_ms", static_cast<double>(s.crypto) * 1e-6);
    layers->Add("runtime.evidence_generated", static_cast<double>(s.evidence_generated));
    layers->Add("runtime.evidence_validated", static_cast<double>(s.evidence_validated));
    layers->Add("runtime.evidence_rejected", static_cast<double>(s.evidence_rejected));
    layers->Add("runtime.evidence_dropped_queue", static_cast<double>(s.evidence_dropped_queue));
    layers->Add("runtime.path_declarations", static_cast<double>(s.path_declarations));
    layers->Add("runtime.mode_switches", static_cast<double>(s.mode_switches));
    if (r.install.started_at != btr::kSimTimeNever) {
      layers->Add("install.rollouts", 1);
      layers->Add("install.nodes_installed", static_cast<double>(r.install.nodes_installed));
      layers->Add("install.nodes_targeted", static_cast<double>(r.per_node.size()));
      layers->Add("install.patch_bytes", static_cast<double>(r.install.patch_bytes_sent));
      layers->Add("install.fallbacks", static_cast<double>(r.install.fallbacks));
    }
  }
}

// Set-up (and optionally Plan) alone, on a fresh system: extra samples for
// the two short timings, which one lifecycle measures only once.
std::pair<double, double> SetupOnce(const std::string& spec_text, bool plan) {
  const Clock::time_point start = Clock::now();
  btr::StatusOr<ExperimentSpec> spec = btr::ParseExperimentSpec(spec_text);
  btr::StatusOr<btr::Scenario> scenario = btr::BuildScenario(spec->scenario);
  btr::BtrSystem system(std::move(*scenario), btr::MakeBtrConfig(*spec));
  const double setup_s = SecondsSince(start);
  double plan_s = 0;
  if (plan) {
    const Clock::time_point t0 = Clock::now();
    (void)system.Plan();
    plan_s = SecondsSince(t0);
  }
  return {setup_s, plan_s};
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? "," : "", v);
    out += buf;
  }
  out += ']';
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lifecycle_bench --spec FILE --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_dir = ".";
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--spec") {
      spec_path = value;
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (spec_path.empty() || argc % 2 == 0) {
    return Usage();
  }
  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
    return 2;
  }
  std::stringstream text_buf;
  text_buf << in.rdbuf();
  const std::string spec_text = text_buf.str();

  // The time budget covers the whole run, checks and extra samples included.
  // The first repetition is the reference: its report is the simulated
  // outcome, and the correctness gate runs on it right away so that no
  // later repetition overlaps its memory.
  const Clock::time_point begin = Clock::now();
  LifecycleOptions first_opt;
  first_opt.keep_targets = true;
  Lifecycle first = RunLifecycle(spec_text, first_opt);
  std::string failure = first.error;
  const std::string fingerprint = HexFingerprint(first.report);
  const Outcome outcome = Summarize(first.report);
  if (failure.empty() && outcome.correct == 0) {
    failure = "no sink instance was served";
  }
  std::string why;
  if (failure.empty() && !TargetsRoundTrip(first, &why)) {
    failure = why;
  }
  first.target_blobs.clear();
  // Shard invariance: the same lifecycle on one shard, adopting the planned
  // strategy, must report byte-identically. Its Run time is the traced
  // run's sim.auto_vs_1shard baseline.
  double one_shard_run_s = 0;
  if (failure.empty()) {
    LifecycleOptions opt;
    opt.shards = 1;
    opt.adopt = first.planned;
    const Lifecycle one = RunLifecycle(spec_text, opt);
    one_shard_run_s = one.run_s;
    if (!one.error.empty() || btr::SerializeExperimentReport(one.report) !=
                                  btr::SerializeExperimentReport(first.report)) {
      failure = "report differs between the default shard count and shards=1";
    }
  }

  // Every later repetition (and replay) must reproduce the reference
  // fingerprint; its report and strategy are dropped once checked.
  auto check = [&](Lifecycle* l) {
    if (failure.empty() && !l->error.empty()) {
      failure = l->error;
    }
    if (failure.empty() && HexFingerprint(l->report) != fingerprint) {
      failure = "experiment fingerprint differs across repetitions";
    }
    l->report.phases.clear();
    l->planned.reset();
  };

  // Extra samples of the short calls, which one lifecycle times only once:
  // set-up always; Plan where planning is short; the phase loop (on a system
  // that adopts the repetition's planned strategy) where the phases are
  // short. A batch follows every untraced repetition, so the samples spread
  // over the whole run; each repetition adds one sample of each as well.
  std::vector<double> setup_samples;
  std::vector<double> plan_samples;
  std::vector<double> run_samples;
  const bool plan_again = first.plan_s < kShortS;
  const bool phases_again = first.edit_s + first.run_s < kShortPhasesS;
  auto sample_short_calls = [&](const Lifecycle& l) {
    setup_samples.push_back(l.setup_s);
    plan_samples.push_back(l.plan_s);
    run_samples.push_back(l.run_s);
    LifecycleOptions replay_opt;
    replay_opt.adopt = l.planned;
    for (int i = 0; i < kBatch && failure.empty(); ++i) {
      const auto [setup_s, plan_s] = SetupOnce(spec_text, plan_again);
      setup_samples.push_back(setup_s);
      if (plan_again) {
        plan_samples.push_back(plan_s);
      }
    }
    // Short phase loops time the threaded shards' scheduling as much as the
    // simulation, so they get many samples: replays fill as much time as
    // the repetition itself took, about half the run. A set-up sample
    // precedes each replay, so set-up too is sampled all through the run.
    const Clock::time_point replays = Clock::now();
    for (int i = 0; phases_again && failure.empty() &&
                    (i < kBatch || SecondsSince(replays) < l.wall_s);
         ++i) {
      setup_samples.push_back(SetupOnce(spec_text, false).first);
      Lifecycle replay = RunLifecycle(spec_text, replay_opt);
      run_samples.push_back(replay.run_s);
      check(&replay);
    }
  };
  if (failure.empty()) {
    sample_short_calls(first);
  }
  first.planned.reset();
  first.report.phases.clear();

  // Timed repetitions, closed loop, until the time budget is spent. In trace
  // mode each untraced repetition is paired with a traced one of the same
  // spec, so the two wall times are comparable.
  Tracer tracer;
  LayerCounters layers;
  std::vector<Lifecycle> reps;
  std::vector<Lifecycle> traced;
  reps.push_back(std::move(first));
  LayerCounters unused;
  // A repetition starts only if one more of the last one's length still fits.
  double last_iteration_s = 0;
  while (failure.empty() &&
         (reps.size() < 3 || SecondsSince(begin) + last_iteration_s <= seconds)) {
    const Clock::time_point iteration = Clock::now();
    if (trace != 0) {
      LifecycleOptions topt;
      topt.tracer = &tracer;
      topt.layers = traced.empty() ? &layers : &unused;
      traced.push_back(RunLifecycle(spec_text, topt));
      if (traced.size() == 1 && traced.front().error.empty()) {
        const Lifecycle& t = traced.front();
        const btr::PlannerMetrics& m = t.plan_metrics;
        layers.Add("planner.modes", static_cast<double>(m.modes_planned));
        layers.Add("planner.schedule_attempts", static_cast<double>(m.schedule_attempts));
        layers.Add("planner.modes_degraded", static_cast<double>(m.modes_degraded));
        layers.Add("planner.unique_plans", static_cast<double>(m.unique_plans));
        layers.Add("planner.threads_used", static_cast<double>(m.threads_used));
        AddRunCounters(t.report, &layers);
        // Serial replay of every mode on a system that adopts the planned
        // strategy, so it sees exactly the planned inputs.
        btr::StatusOr<ExperimentSpec> spec = btr::ParseExperimentSpec(spec_text);
        btr::StatusOr<btr::Scenario> scenario = btr::BuildScenario(spec->scenario);
        btr::BtrSystem system(std::move(*scenario), btr::MakeBtrConfig(*spec));
        if (system.AdoptStrategy(t.planned).ok()) {
          ReplayModesSerially(system, &tracer, &layers);
        }
      }
      check(&traced.back());
    }
    reps.push_back(RunLifecycle(spec_text, LifecycleOptions{}));
    if (reps.back().error.empty()) {
      sample_short_calls(reps.back());
    }
    check(&reps.back());
    last_iteration_s = SecondsSince(iteration);
  }

  JsonObject out;
  out.Str("fingerprint", fingerprint);
  out.Bool("correct", failure.empty());
  out.Str("failure", failure);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;
  uint64_t stalled = 0;
  std::string reps_json;
  for (const Lifecycle& l : reps) {
    attempted += l.attempted;
    failed += l.failed;
    violations += l.violations;
    stalled += l.stalled_rollouts;
    reps_json += (reps_json.empty() ? "" : ",") + RepJson(l);
  }
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Int("violations", violations);
  out.Int("stalled_rollouts", stalled);
  out.Raw("reps", "[" + reps_json + "]");
  out.Raw("setup_samples", JsonArray(setup_samples));
  out.Raw("plan_samples", JsonArray(plan_samples));
  out.Raw("run_samples", JsonArray(run_samples));
  out.Num("peak_rss_mb", PeakRssMb());

  JsonObject sim;
  sim.Int("correct", outcome.correct);
  sim.Int("expected", outcome.expected);
  sim.Int("shed", outcome.shed);
  sim.Int("missed", outcome.missed);
  sim.Int("events", outcome.events);
  sim.Num("simulated_s", outcome.simulated_s);
  sim.Num("recovery_ms_max", outcome.recovery_ms_max);
  sim.Num("sink_latency_ms_p99", outcome.latency_ms_p99);
  sim.Int("rollouts", outcome.rollouts);
  sim.Int("rollouts_complete", outcome.rollouts_complete);
  sim.Num("rollout_ms_p50", outcome.rollout_ms_p50);
  out.Raw("sim", sim.str());

  JsonObject prov;
  prov.Str("build_type", LIFEBENCH_BUILD_TYPE);
  prov.Str("compiler", LIFEBENCH_COMPILER);
  prov.Int("hardware_threads", std::thread::hardware_concurrency());
  out.Raw("provenance", prov.str());

  if (trace != 0 && !traced.empty()) {
    layers.Add("sim.run_s_1shard", one_shard_run_s);
    JsonObject lj;
    for (const auto& [name, value] : layers.values) {
      lj.Num(name, value);
    }
    btr::Samples validate;
    for (double x : layers.validate_ms) {
      validate.Add(x);
    }
    btr::Samples map;
    for (double x : layers.map_ms) {
      map.Add(x);
    }
    lj.Num("fmt.validate_ms_p50", validate.empty() ? 0.0 : validate.Percentile(0.5));
    lj.Num("fmt.map_ms_p50", map.empty() ? 0.0 : map.Percentile(0.5));
    out.Raw("layers", lj.str());
    std::string traced_json;
    for (const Lifecycle& l : traced) {
      traced_json += (traced_json.empty() ? "" : ",") + RepJson(l);
    }
    out.Raw("traced_reps", "[" + traced_json + "]");
    JsonObject self;
    for (const auto& [layer, s] : tracer.LayerSelfSeconds()) {
      self.Num(layer, s);
    }
    out.Raw("self_s", self.str());
    if (!tracer.WriteChromeTrace(out_dir + "/trace.json")) {
      std::fprintf(stderr, "cannot write %s/trace.json\n", out_dir.c_str());
    }
  }
  std::printf("%s\n", out.str().c_str());
  return failure.empty() ? 0 : 1;
}
