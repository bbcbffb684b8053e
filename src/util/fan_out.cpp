#include "util/fan_out.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hars {

namespace {

thread_local bool tls_pool_worker = false;
std::atomic<std::size_t> g_threads_started{0};

/// Threads a caller asking for `requested` gets: 0 or less means all the
/// hardware threads the process may use.
int thread_count(int requested) {
  return requested > 0 ? requested : hardware_threads();
}

/// Runs fn(i), keeping what it throws at errors[i].
void run_item(FunctionRef<void(std::size_t)> fn, std::size_t i,
              std::vector<std::exception_ptr>& errors) {
  try {
    fn(i);
  } catch (...) {
    errors[i] = std::current_exception();
  }
}

void rethrow_lowest(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

int hardware_threads() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool on_pool_worker() { return tls_pool_worker; }

std::size_t fan_out_threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

void fan_out_each(std::size_t n, FunctionRef<void(std::size_t)> fn,
                  int width) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      run_item(fn, i, errors);
    }
  };

  std::size_t helpers = 0;
  if (n >= 2 && !on_pool_worker()) {
    helpers = std::min<std::size_t>(
        n, static_cast<std::size_t>(thread_count(width))) - 1;
  }
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      threads.emplace_back([&drain] {
        tls_pool_worker = true;  // Nested fan-outs run inline.
        drain();
      });
    } catch (const std::system_error&) {
      break;  // No thread to spare: the caller and the others drain.
    }
    g_threads_started.fetch_add(1, std::memory_order_relaxed);
  }
  // Beside helpers the caller is a worker too, so the fan-outs its items
  // start run inline like theirs; drain() does not throw.
  const bool was_worker = tls_pool_worker;
  tls_pool_worker = was_worker || !threads.empty();
  drain();
  tls_pool_worker = was_worker;
  for (std::thread& t : threads) t.join();

  rethrow_lowest(errors);
}

struct TaskPool::Batch {
  FunctionRef<void(std::size_t)> fn;
  std::vector<std::exception_ptr> errors;
  std::size_t remaining = 0;     ///< Guarded by the pool's mutex_.
  std::condition_variable done;  ///< Waited on with the pool's mutex_.
};

TaskPool::TaskPool(int workers) {
  const int n = thread_count(workers);
  workers_.reserve(static_cast<std::size_t>(n));
  try {
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
}

TaskPool::~TaskPool() { stop_and_join(); }

void TaskPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::run_each(std::size_t n, FunctionRef<void(std::size_t)> fn) {
  if (on_pool_worker()) {
    // Queuing behind the caller's own task could wait on every worker.
    fan_out_each(n, fn, 1);
    return;
  }
  if (n == 0) return;
  Batch batch{fn, std::vector<std::exception_ptr>(n), n, {}};
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) queue_.push_back({&batch, i});
    work_cv_.notify_all();
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
  }
  rethrow_lowest(batch.errors);
}

void TaskPool::worker_loop() {
  tls_pool_worker = true;  // Fan-outs in tasks run inline.
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopping, and nothing left to run.
    const Task task = queue_.front();
    queue_.pop_front();
    lock.unlock();
    run_item(task.batch->fn, task.index, task.batch->errors);
    lock.lock();
    // Notify under the lock: the waiter may destroy the batch on waking.
    if (--task.batch->remaining == 0) task.batch->done.notify_all();
  }
}

}  // namespace hars
