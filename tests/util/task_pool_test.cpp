// TaskPool: every index of a batch runs once, one worker starts items in
// index order, run_each on a worker runs inline, errors surface lowest
// index first, the destructor joins, and idle workers sleep rather than
// poll. Runs under ThreadSanitizer in the CI sanitizer matrix.
#include "util/fan_out.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hars {
namespace {

TEST(TaskPool, RunsEveryIndexOnce) {
  TaskPool pool(4);
  constexpr std::size_t kItems = 500;
  std::vector<std::atomic<int>> runs(kItems);
  pool.run_each(kItems, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, NonPositiveWorkerCountMeansHardwareThreads) {
  EXPECT_EQ(TaskPool(0).worker_count(), hardware_threads());
  EXPECT_EQ(TaskPool(-3).worker_count(), hardware_threads());
  EXPECT_EQ(TaskPool(1).worker_count(), 1);
}

TEST(TaskPool, RunEachWithNoItemsReturns) {
  TaskPool pool(2);
  pool.run_each(0, [](std::size_t) { FAIL() << "no item to run"; });
}

TEST(TaskPool, OneWorkerStartsItemsInIndexOrder) {
  TaskPool pool(1);
  std::vector<std::size_t> order;  // Only the one worker appends.
  pool.run_each(100, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(TaskPool, RunEachOnWorkerRunsInline) {
  // One worker: a nested batch queued behind its own task would never run.
  TaskPool pool(1);
  std::atomic<int> count{0};
  std::atomic<int> elsewhere{0};
  pool.run_each(4, [&](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    ++count;
    pool.run_each(5, [&](std::size_t) {
      ++count;
      if (std::this_thread::get_id() != self) ++elsewhere;
    });
  });
  EXPECT_EQ(count.load(), 24);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(TaskPool, RethrowsLowestIndexErrorAfterEveryItemFinished) {
  TaskPool pool(2);
  constexpr std::size_t kItems = 8;
  std::atomic<int> ran{0};
  try {
    pool.run_each(kItems, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 3 || i == 6) {
        throw std::runtime_error("item " + std::to_string(i));
      }
    });
    FAIL() << "run_each did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "item 3");
    EXPECT_EQ(ran.load(), static_cast<int>(kItems));
  }
}

std::atomic<int> g_exited_workers{0};

struct ExitCounter {
  ~ExitCounter() { g_exited_workers.fetch_add(1); }
};

TEST(TaskPool, DestructorJoins) {
  constexpr int kWorkers = 3;
  g_exited_workers.store(0);
  {
    TaskPool pool(kWorkers);
    // Every item waits for the others, so each worker runs exactly one
    // and touches its own thread-local counter.
    std::atomic<int> started{0};
    pool.run_each(kWorkers, [&](std::size_t) {
      thread_local ExitCounter counter;
      (void)counter;
      started.fetch_add(1);
      while (started.load() < kWorkers) std::this_thread::yield();
    });
    EXPECT_EQ(g_exited_workers.load(), 0);
  }
  // A joined thread has run its thread-local destructors.
  EXPECT_EQ(g_exited_workers.load(), kWorkers);
}

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return 1e3 * static_cast<double>(t.tv_sec) +
           1e-3 * static_cast<double>(t.tv_usec);
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

TEST(TaskPool, IdleWorkersSleep) {
  TaskPool pool(4);
  // Let every worker start and reach its wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(process_cpu_ms() - before, 1.0);
}

}  // namespace
}  // namespace hars
