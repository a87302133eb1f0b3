#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/log.h"

namespace btr {
namespace {

// Saturating add against kSimTimeNever (and plain overflow).
SimTime SatAdd(SimTime a, SimTime b) {
  if (a == kSimTimeNever || b == kSimTimeNever) {
    return kSimTimeNever;
  }
  SimTime sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    return kSimTimeNever;
  }
  return sum;
}

}  // namespace

Simulator::Simulator(uint64_t seed) : Simulator(seed, ShardLayout{}) {}

Simulator::Simulator(uint64_t seed, ShardLayout layout)
    : layout_(std::move(layout)), seed_(seed), rng_(seed) {
  shard_count_ = std::max<uint32_t>(1, layout_.shard_count);
  layout_.shard_count = shard_count_;
  lookahead_ = layout_.lookahead;
  queues_.reserve(shard_count_);
  for (uint32_t s = 0; s < shard_count_; ++s) {
    queues_.push_back(std::make_unique<EventQueue>());
    queues_.back()->set_queue_id(s);
  }
  driver_queue_.set_queue_id(shard_count_);
  actor_seq_.resize(layout_.shard_of.size());
  SetLogTimeSource(&now_);
}

Simulator::~Simulator() { SetLogTimeSource(nullptr); }

bool Simulator::Cancel(EventHandle h) {
  if (!h.valid()) {
    return false;
  }
  const uint32_t qid = h.queue_id();
  if (exec_shard_ != kNoShard && qid != exec_shard_) {
    BTR_LOG(kError, "sim") << "Cancel rejected: handle belongs to shard " << qid
                           << " but was cancelled from shard " << exec_shard_
                           << "; the owner may already have run past this moment";
    return false;
  }
  if (qid == shard_count_) {
    return driver_queue_.Cancel(h);
  }
  if (qid < shard_count_) {
    return queues_[qid]->Cancel(h);
  }
  return false;
}

void Simulator::RunNextOf(EventQueue& queue) {
  // Advance the clock before dispatching so callbacks observe the event's
  // own timestamp via Now().
  EventFn fn;
  now_ = queue.PopNext(&fn, &actor_);
  fn();
  ++events_executed_;
}

void Simulator::RunShardWindow(uint32_t shard) {
  EventQueue& queue = *queues_[shard];
  exec_shard_ = shard;
  // NextTime is kSimTimeNever for an empty queue, which ends the window.
  while (queue.NextTime() < window_end_) {
    RunNextOf(queue);
  }
  exec_shard_ = kNoShard;
  actor_ = kDriverActor;
}

void Simulator::RunWindowed(SimTime deadline) {
  const SimDuration lookahead =
      lookahead_ == kSimTimeNever ? kSimTimeNever : std::max<SimDuration>(1, lookahead_);
  // Shards run their windows one after another, so the clock steps back
  // when the next shard starts; the run ends at the latest executed event.
  SimTime latest = now_;
  for (;;) {
    const SimTime t_driver = driver_queue_.NextTime();
    SimTime t_nodes = kSimTimeNever;
    for (const auto& queue : queues_) {
      t_nodes = std::min(t_nodes, queue->NextTime());
    }
    const SimTime t = std::min(t_driver, t_nodes);
    if (t == kSimTimeNever || t > deadline) {
      break;
    }
    if (t_driver <= t_nodes) {
      // Driver events (period ticks, fault injections, install shipping)
      // run between windows, so they may touch any shard's actors.
      RunNextOf(driver_queue_);
      latest = std::max(latest, now_);
      continue;
    }
    window_end_ = std::min({SatAdd(t_nodes, lookahead), t_driver, SatAdd(deadline, 1)});
    for (uint32_t s = 0; s < shard_count_; ++s) {
      RunShardWindow(s);
      latest = std::max(latest, now_);
    }
  }
  now_ = latest;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  if (shard_count_ == 1) {
    EventQueue& queue = *queues_[0];
    while (!queue.Empty() && queue.NextTime() <= deadline) {
      RunNextOf(queue);
    }
    actor_ = kDriverActor;
  } else {
    RunWindowed(deadline);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

SimTime Simulator::RunToCompletion() {
  if (shard_count_ == 1) {
    EventQueue& queue = *queues_[0];
    while (!queue.Empty()) {
      RunNextOf(queue);
    }
    actor_ = kDriverActor;
  } else {
    RunWindowed(kSimTimeNever);
  }
  return now_;
}

bool Simulator::Step() {
  if (shard_count_ == 1) {
    EventQueue& queue = *queues_[0];
    if (queue.Empty()) {
      return false;
    }
    RunNextOf(queue);
    actor_ = kDriverActor;
    return true;
  }
  return StepMerged();
}

bool Simulator::StepMerged() {
  // Global (when, prio) merge across the driver queue and every shard:
  // executes exactly the event the windowed engine would execute next.
  constexpr int kNone = -1;
  constexpr int kDriver = -2;
  SimTime best_when = kSimTimeNever;
  uint64_t best_prio = 0;
  int best = kNone;
  SimTime when = 0;
  uint64_t prio = 0;
  if (driver_queue_.PeekKey(&when, &prio)) {
    best_when = when;
    best_prio = prio;
    best = kDriver;
  }
  for (uint32_t s = 0; s < shard_count_; ++s) {
    if (queues_[s]->PeekKey(&when, &prio) &&
        (best == kNone || when < best_when || (when == best_when && prio < best_prio))) {
      best_when = when;
      best_prio = prio;
      best = static_cast<int>(s);
    }
  }
  if (best == kNone) {
    return false;
  }
  if (best == kDriver) {
    RunNextOf(driver_queue_);
    return true;
  }
  // A one-event window: every other event is at or after best_when, so a
  // cross-shard schedule at any time >= Now() keeps the canonical order.
  window_end_ = best_when;
  exec_shard_ = static_cast<uint32_t>(best);
  RunNextOf(*queues_[best]);
  exec_shard_ = kNoShard;
  actor_ = kDriverActor;
  return true;
}

size_t Simulator::pending_events() const {
  size_t total = driver_queue_.PendingCount();
  for (const auto& queue : queues_) {
    total += queue->PendingCount();
  }
  return total;
}

}  // namespace btr
