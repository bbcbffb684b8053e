#include "sweep/work_stealing_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/fan_out.hpp"

namespace hars {

namespace {
// Which worker the current thread is, or npos for external threads.
thread_local std::size_t tls_worker_index = static_cast<std::size_t>(-1);
}  // namespace

WorkStealingPool::WorkStealingPool(int workers) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, workers));
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkStealingPool::submit(std::function<void()> task) {
  std::size_t target = tls_worker_index;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++pending_;
    if (target >= queues_.size()) {
      target = next_victim_;
      next_victim_ = (next_victim_ + 1) % queues_.size();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void WorkStealingPool::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t WorkStealingPool::steal_count() const {
  std::lock_guard<std::mutex> lock(
      const_cast<WorkStealingPool*>(this)->state_mutex_);
  return steals_;
}

bool WorkStealingPool::try_pop(std::size_t self, std::function<void()>& task) {
  Worker& w = *queues_[self];
  std::lock_guard<std::mutex> lock(w.mutex);
  if (w.tasks.empty()) return false;
  task = std::move(w.tasks.front());
  w.tasks.pop_front();
  return true;
}

bool WorkStealingPool::try_steal(std::size_t self,
                                 std::function<void()>& task) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.tasks.empty()) continue;
    task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    {
      std::lock_guard<std::mutex> state(state_mutex_);
      ++steals_;
    }
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  tls_worker_index = self;
  mark_pool_worker();  // Set-up fan-outs in tasks run inline.
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task) || try_steal(self, task)) {
      task();
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (stopping_) return;
    // Re-check under the lock: a task may have been submitted between the
    // failed pop/steal and acquiring state_mutex_.
    work_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

}  // namespace hars
