// A small work-stealing thread pool for sweep campaigns.
//
// Each worker owns a deque: it pops its own tasks FIFO and, when empty,
// steals FIFO from a victim. FIFO own-pop (instead of the classic
// cache-warm LIFO) is deliberate: sweep tasks are whole simulations
// (milliseconds to seconds each) with no locality between them, and
// running them in roughly submission order keeps the SweepEngine's
// ordered emission cursor advancing continuously — which is what gives
// hars_simd clients low submit-to-first-record latency and makes a
// drained campaign's resume cursor land near the true progress point
// instead of at the oldest unfinished straggler. Per-deque mutexes
// rather than a lock-free Chase-Lev deque because queue overhead is
// noise at this task granularity and the mutexes keep the pool
// trivially ThreadSanitizer-clean.
//
// Determinism contract: the pool makes no ordering promises — callers that
// need reproducible results must make tasks independent (the SweepEngine
// derives per-case RNG seeds and emits results in case order, so a
// campaign's output is bit-identical for any worker count).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hars {

class WorkStealingPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1).
  explicit WorkStealingPool(int workers);

  /// Drains outstanding tasks, then joins every worker.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueues a task. From a worker thread the task lands on that
  /// worker's own deque; external submissions are dealt round-robin.
  /// Tasks must not throw — wrap fallible work and capture the error.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has finished.
  void wait_idle();

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Number of successful steals since construction (observability; the
  /// pool test uses it to prove the stealing path runs).
  std::size_t steal_count() const;

 private:
  struct Worker {
    std::deque<std::function<void()>> tasks;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;   ///< Wakes idle workers.
  std::condition_variable idle_cv_;   ///< Wakes wait_idle().
  std::size_t pending_ = 0;           ///< Queued + running tasks.
  std::size_t next_victim_ = 0;       ///< Round-robin external submit cursor.
  std::size_t steals_ = 0;
  bool stopping_ = false;
};

}  // namespace hars
