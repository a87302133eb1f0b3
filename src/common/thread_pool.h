// The process-wide worker pool shared by the planner and the sweep service.
//
// Planning a strategy is embarrassingly parallel within one fault-set level
// (all level-k modes depend only on level k-1), so the StrategyBuilder
// submits each wave as a blocking ParallelFor batch. The sweep service runs
// whole experiment jobs as pool jobs on `--jobs N` lanes. Batches are
// independent: each tracks its own completion count and first error, and
// the pool also exposes a non-blocking Dispatch that returns a Ticket to
// wait on.
//
// `ThreadPool::Shared()` is the one instance both users fold onto.
//
// Nested use is safe by construction: each sweep job plans (builder waves)
// on the same shared pool. A Dispatch issued *from* a pool worker therefore
// runs its batch inline on that worker instead of enqueueing, because every
// worker blocking in Ticket::Wait on jobs that no free worker will ever
// pick up is a deadlock, not a queue. Callers that must have genuinely
// concurrent helpers (the sweep service's job lanes) reserve them with
// ReserveWorkers, which counts only idle workers — a "reserved ticket" that
// cannot be starved by long-running jobs already occupying the pool.

#ifndef BTR_SRC_COMMON_THREAD_POOL_H_
#define BTR_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace btr {

class ThreadPool {
 public:
  // `threads` = 0 picks the hardware concurrency (at least 1). A pool of
  // size 1 spawns no workers — ParallelFor and Dispatch run inline on the
  // calling thread, so single-threaded builds stay exactly as deterministic
  // and debuggable as the pre-pool planner.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool. Sized to the hardware concurrency; grows on
  // demand via EnsureWorkers. Never destroyed (workers park in their
  // condition variable at exit).
  static ThreadPool& Shared();

  size_t thread_count() const { return thread_count_; }
  size_t worker_count() const;

  // Grows the pool to at least `workers` worker threads (the planner's
  // explicit thread request may exceed the host's core count).
  void EnsureWorkers(size_t workers);

  // Grows the pool until at least `workers` workers are *idle* right now.
  // EnsureWorkers only bounds the total, which is not enough once
  // long-running jobs (sweep jobs) occupy workers: a batch
  // that needs genuinely concurrent helpers would queue behind them
  // forever. Callers dispatch immediately after reserving; jobs enqueued
  // concurrently from other threads can still race for the new workers,
  // but a worker never blocks on another batch, so the reserve cannot be
  // consumed by the reserving thread's own pending work.
  void ReserveWorkers(size_t workers);

  // True when called on one of this process's pool worker threads (any
  // pool). Nested Dispatch/ParallelFor calls detect themselves with this
  // and run inline; the sweep service uses it to run a nested sweep on its
  // caller's lane.
  static bool OnWorkerThread();

  // Workers currently executing a job (approximate the moment it returns).
  size_t busy_workers() const;

  // Handle for a Dispatch batch. Wait() blocks until every job in the batch
  // returned and rethrows the first captured exception.
  class Ticket {
   public:
    Ticket() = default;
    void Wait();

   private:
    friend class ThreadPool;
    struct Batch;
    std::shared_ptr<Batch> batch_;
  };

  // Enqueues fn(0) ... fn(count - 1) and returns immediately. Jobs from
  // different Dispatch calls may interleave; each batch completes
  // independently. With no workers (pool of size 1) — or when called from
  // a pool worker thread (nested use; see the header comment) — the jobs
  // run inline before Dispatch returns.
  Ticket Dispatch(size_t count, std::function<void(size_t)> fn);

  // Runs fn(0) ... fn(count - 1) across the pool and blocks until every
  // call returned. `fn` must be safe to invoke concurrently. If any call
  // throws, the first captured exception is rethrown on the calling thread
  // after the batch drains (matching what a serial loop would do).
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  struct Job;

  static void ExecuteAndRetire(Job& job);
  void SpawnWorkerLocked();
  void WorkerLoop();

  size_t thread_count_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::queue<Job> queue_;
  size_t busy_ = 0;  // workers currently executing a job (guarded by mu_)
  bool shutdown_ = false;
};

}  // namespace btr

#endif  // BTR_SRC_COMMON_THREAD_POOL_H_
