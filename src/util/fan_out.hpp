// Parallel execution: the one module that runs independent items on
// several threads. Two entry points share one contract:
//  * fan_out_each / fan_out run a handful of coarse items (whole
//    calibration, probe or sweep-case simulations, milliseconds each) on
//    the calling thread plus short-lived helper threads;
//  * TaskPool keeps long-lived workers for a process that runs many
//    batches side by side (the hars_simd daemon's campaigns), and its
//    run_each queues one batch on them.
//
// The contract that keeps callers deterministic and cheap:
//  * items are indices; each item must only touch state of its own (its
//    own SimEngine, its own result slot) or thread-safe shared state
//    (OnceCache), so the caller sees the same results whatever the
//    interleaving;
//  * on a pool worker (a TaskPool worker, a fan-out helper, or a caller
//    while it drains beside helpers) every item runs inline, so a
//    sweep's --jobs N threads never start N x cores threads;
//  * every item runs even when an earlier one throws; after all finished
//    the lowest-index exception is rethrown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/function_ref.hpp"

namespace hars {

/// Hardware threads this process may run on: its CPU affinity mask where
/// the OS reports one, else std::thread::hardware_concurrency(); at least
/// 1. The one width that a thread count of 0 means.
int hardware_threads();

/// True while the calling thread is a pool worker (see the header
/// comment): fan_out called on it runs inline.
bool on_pool_worker();

/// Helper threads fan_out has started in this process (observability: a
/// run whose set-up is fully cached starts none).
std::size_t fan_out_threads_started();

/// Runs fn(i) once for every i in [0, n) on the calling thread plus up
/// to width - 1 helpers (width <= 0: hardware_threads()). Fewer than two
/// items, a width of 1 or a caller that is a pool worker start no thread.
void fan_out_each(std::size_t n, FunctionRef<void(std::size_t)> fn,
                  int width = 0);

/// fan_out_each collecting fn(i) at index i. The result type must be
/// default-constructible.
template <typename Fn>
auto fan_out(std::size_t n, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<Result> results(n);
  fan_out_each(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// A fixed set of worker threads serving one FIFO queue: items start in
/// the order they were queued, so a batch queued while another is running
/// starts once every earlier item has started.
class TaskPool {
 public:
  /// Starts `workers` threads; workers <= 0 means hardware_threads().
  explicit TaskPool(int workers);

  /// Joins every worker. No run_each may be in progress.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Queues fn(i) for every i in [0, n) in index order and returns when
  /// all n have finished, with fan_out_each's error contract. Called on a
  /// pool worker it runs every item inline.
  void run_each(std::size_t n, FunctionRef<void(std::size_t)> fn);

 private:
  struct Batch;
  struct Task {
    Batch* batch;
    std::size_t index;
  };

  void worker_loop();
  void stop_and_join();

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< Waited on with mutex_.
  std::deque<Task> queue_;           ///< Guarded by mutex_.
  bool stopping_ = false;            ///< Guarded by mutex_.
  std::vector<std::thread> workers_;
};

}  // namespace hars
