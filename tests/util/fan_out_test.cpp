// fan_out: every index runs once with its result at its index, errors
// surface lowest index first only after every item finished, the width
// bounds the helpers, and small batches or pool workers start no thread. Runs under ThreadSanitizer in
// the CI sanitizer matrix.
#include "util/fan_out.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hars {
namespace {

TEST(FanOut, HardwareThreadsIsPositive) { EXPECT_GE(hardware_threads(), 1); }

TEST(FanOut, EveryIndexRunsOnceAndLandsByIndex) {
  constexpr std::size_t kItems = 64;
  std::vector<std::atomic<int>> runs(kItems);
  const std::size_t started = fan_out_threads_started();
  const std::vector<std::size_t> results =
      fan_out(kItems, [&](std::size_t i) {
        runs[i].fetch_add(1);
        return i * i;
      });
  ASSERT_EQ(results.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_EQ(results[i], i * i);
  }
  const auto width = static_cast<std::size_t>(hardware_threads());
  EXPECT_EQ(fan_out_threads_started() - started, std::min(kItems, width) - 1);
}

TEST(FanOut, RethrowsLowestIndexErrorAfterEveryItemFinished) {
  constexpr std::size_t kItems = 8;
  std::atomic<int> finished{0};
  std::atomic<int> ran{0};
  try {
    fan_out_each(kItems, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 3 || i == 6) {
        throw std::runtime_error("item " + std::to_string(i));
      }
      // The slow items finish well after both throws.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1);
    });
    FAIL() << "fan_out_each did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "item 3");
    EXPECT_EQ(ran.load(), static_cast<int>(kItems));
    EXPECT_EQ(finished.load(), static_cast<int>(kItems) - 2);
  }
}

TEST(FanOut, FewerThanTwoItemsStartNoThread) {
  const std::size_t started = fan_out_threads_started();
  const std::thread::id caller = std::this_thread::get_id();
  fan_out_each(0, [](std::size_t) { FAIL() << "no item to run"; });
  std::thread::id ran_on;
  fan_out_each(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(fan_out_threads_started(), started);
}

TEST(FanOut, RunsInlineOnPoolWorker) {
  const std::size_t started = fan_out_threads_started();
  std::mutex mutex;
  std::set<std::thread::id> item_threads;
  std::thread::id worker;
  bool marked = false;
  {
    TaskPool pool(1);
    pool.run_each(1, [&](std::size_t) {
      worker = std::this_thread::get_id();
      marked = on_pool_worker();
      fan_out_each(16, [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        item_threads.insert(std::this_thread::get_id());
      });
    });
  }
  EXPECT_TRUE(marked);
  EXPECT_FALSE(on_pool_worker());  // The test thread is no pool worker.
  EXPECT_EQ(item_threads, std::set<std::thread::id>{worker});
  EXPECT_EQ(fan_out_threads_started(), started);
}

TEST(FanOut, WidthBoundsTheHelpers) {
  const std::size_t started = fan_out_threads_started();
  fan_out_each(8, [](std::size_t) {}, 1);
  EXPECT_EQ(fan_out_threads_started(), started);
  fan_out_each(8, [](std::size_t) {}, 3);
  EXPECT_EQ(fan_out_threads_started() - started, 2u);
}

TEST(FanOut, CallerBesideHelpersRunsNestedFanOutsInline) {
  const std::size_t started = fan_out_threads_started();
  std::atomic<int> marked_items{0};
  fan_out_each(4, [&](std::size_t) {
    if (on_pool_worker()) marked_items.fetch_add(1);
    fan_out_each(4, [](std::size_t) {});
    // Long enough that the caller runs some items, not only the helper.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }, 2);
  // One helper, and no nested fan-out started another thread.
  EXPECT_EQ(fan_out_threads_started() - started, 1u);
  EXPECT_EQ(marked_items.load(), 4);
  EXPECT_FALSE(on_pool_worker());  // The caller's mark is restored.
}

TEST(FanOut, HelperThreadsRunNestedFanOutsInline) {
  std::atomic<int> inner_items{0};
  std::atomic<int> helper_items_spread{0};
  fan_out_each(4, [&](std::size_t) {
    const bool helper = on_pool_worker();
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<bool> elsewhere{false};
    fan_out_each(4, [&](std::size_t) {
      inner_items.fetch_add(1);
      if (std::this_thread::get_id() != self) elsewhere.store(true);
    });
    if (helper && elsewhere.load()) helper_items_spread.fetch_add(1);
  });
  EXPECT_EQ(inner_items.load(), 16);
  EXPECT_EQ(helper_items_spread.load(), 0);
}

}  // namespace
}  // namespace hars
