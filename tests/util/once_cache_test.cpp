// OnceCache concurrency hammer: N threads race keyed compute-once
// lookups; every key must be computed exactly once and every racer must
// observe the same value. Designed to run (and be meaningful) under
// ThreadSanitizer in the CI sanitizer matrix.
#include "util/once_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hars {
namespace {

TEST(OnceCache, ComputesOnceSingleThreaded) {
  OnceCache<int, int> cache;
  int computes = 0;
  const int a = cache.get_or_compute(7, [&] {
    ++computes;
    return 70;
  });
  const int b = cache.get_or_compute(7, [&] {
    ++computes;
    return 71;  // Must not run: the first value wins.
  });
  EXPECT_EQ(a, 70);
  EXPECT_EQ(b, 70);
  EXPECT_EQ(computes, 1);
}

TEST(OnceCache, ThrowingComputationRetries) {
  OnceCache<int, int> cache;
  int attempts = 0;
  EXPECT_THROW(cache.get_or_compute(1,
                                    [&]() -> int {
                                      ++attempts;
                                      throw std::runtime_error("flaky");
                                    }),
               std::runtime_error);
  const int v = cache.get_or_compute(1, [&] {
    ++attempts;
    return 11;
  });
  EXPECT_EQ(v, 11);
  EXPECT_EQ(attempts, 2);
}

TEST(OnceCache, HammerExactlyOneComputePerKey) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 50;

  OnceCache<int, int> cache;
  std::vector<std::atomic<int>> computes(kKeys);
  for (auto& c : computes) c.store(0);

  // Every thread hits every key kRounds times, in a different order per
  // thread, so first-touch races occur on many keys at once.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          const int key = (i + t * 3 + round) % kKeys;
          const int value = cache.get_or_compute(key, [&, key] {
            computes[static_cast<std::size_t>(key)].fetch_add(1);
            return key * 1000 + 1;
          });
          if (value != key * 1000 + 1) mismatch.store(true);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_FALSE(mismatch.load());
  for (int key = 0; key < kKeys; ++key) {
    EXPECT_EQ(computes[static_cast<std::size_t>(key)].load(), 1)
        << "key " << key << " computed more than once";
  }
}

TEST(OnceCache, HammerDistinctValueTypes) {
  // Vector values: a torn publish would show up as a short/empty vector
  // (and as a TSan report under the sanitizer matrix).
  constexpr int kThreads = 8;
  OnceCache<int, std::vector<int>> cache;
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int key = 0; key < 8; ++key) {
        const std::vector<int> v =
            cache.get_or_compute(key, [key] {
              return std::vector<int>(static_cast<std::size_t>(key + 3),
                                      key);
            });
        if (v.size() != static_cast<std::size_t>(key + 3)) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(OnceCache, NamedCacheCountsHitsMissesAndEntries) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);

  OnceCache<int, int> cache("once_cache_metrics_test");
  // The first lookup lazily registers the metric ids (growing the
  // registry layout), so the thread shard must re-attach before bumps
  // on the new ids are counted.
  EXPECT_EQ(cache.get_or_compute(0, [] { return 0; }), 0);
  obs::ensure_thread_registered();

  EXPECT_EQ(cache.get_or_compute(1, [] { return 10; }), 10);  // miss
  EXPECT_EQ(cache.get_or_compute(1, [] { return 99; }), 10);  // hit
  EXPECT_EQ(cache.get_or_compute(1, [] { return 99; }), 10);  // hit
  // A throwing computation still counts its miss (and stays retryable).
  EXPECT_THROW(
      cache.get_or_compute(2, []() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_EQ(cache.get_or_compute(2, [] { return 20; }), 20);  // retry miss

  const obs::MetricsSnapshot snapshot = registry.take_snapshot();
  const obs::MetricValue* hit =
      snapshot.find("cache.once_cache_metrics_test.hit");
  const obs::MetricValue* miss =
      snapshot.find("cache.once_cache_metrics_test.miss");
  const obs::MetricValue* entries =
      snapshot.find("cache.once_cache_metrics_test.entries");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  ASSERT_NE(entries, nullptr);
  EXPECT_GE(hit->counter, 2u);
  EXPECT_GE(miss->counter, 3u);  // Two computes + one throw (key 0 may
                                 // predate the shard re-attach).
  EXPECT_EQ(entries->gauge, 3.0);  // Keys 0, 1, 2.
  registry.set_enabled(false);
}

TEST(OnceCache, NamedHammerStaysConsistent) {
  // The hammer of HammerExactlyOneComputePerKey, but through a *named*
  // cache so the metric bumps race too — meaningful under TSan.
  auto& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  OnceCache<int, int> cache("once_cache_hammer_test");
  std::atomic<int> computes{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      obs::ensure_thread_registered();
      for (int round = 0; round < 4; ++round) {
        for (int key = 0; key < kKeys; ++key) {
          const int value = cache.get_or_compute(key, [&computes, key] {
            ++computes;
            return key * 7;
          });
          if (value != key * 7) ++bad;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(bad.load(), 0);

  const obs::MetricsSnapshot snapshot = registry.take_snapshot();
  const obs::MetricValue* entries =
      snapshot.find("cache.once_cache_hammer_test.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->gauge, static_cast<double>(kKeys));
  registry.set_enabled(false);
}

TEST(OnceCache, WaitersOnAThrowingComputationRecomputeExactlyOnce) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  OnceCache<int, int> cache("once_cache_throw_waiters_test");
  // Registers the metric ids before any racer attaches its shard; the
  // counts below are deltas from here.
  EXPECT_EQ(cache.get_or_compute(0, [] { return 0; }), 0);
  const auto count = [&](const char* field) {
    const obs::MetricsSnapshot snapshot = registry.take_snapshot();
    const obs::MetricValue* metric = snapshot.find(
        std::string("cache.once_cache_throw_waiters_test.") + field);
    return metric == nullptr ? 0.0
           : metric->kind == obs::MetricKind::kGauge
               ? metric->gauge
               : static_cast<double>(metric->counter);
  };
  const double hits_before = count("hit");
  const double misses_before = count("miss");

  constexpr int kWaiters = 6;
  std::atomic<int> waiters_started{0};
  std::atomic<int> recomputes{0};
  std::atomic<int> bad{0};
  std::thread thrower([&] {
    obs::ensure_thread_registered();
    EXPECT_THROW(cache.get_or_compute(1,
                                      [&]() -> int {
                                        // Hold kRunning until every waiter
                                        // is on its way into the wait.
                                        while (waiters_started.load() <
                                               kWaiters) {
                                          std::this_thread::yield();
                                        }
                                        std::this_thread::sleep_for(
                                            std::chrono::milliseconds(20));
                                        throw std::runtime_error("flaky");
                                      }),
                 std::runtime_error);
  });
  // The waiters start only once key 1 reads kRunning.
  while (cache.size() < 2) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      obs::ensure_thread_registered();
      waiters_started.fetch_add(1);
      const int value = cache.get_or_compute(1, [&] {
        recomputes.fetch_add(1);
        return 11;
      });
      if (value != 11) bad.fetch_add(1);
    });
  }
  thrower.join();
  for (std::thread& w : waiters) w.join();

  EXPECT_EQ(recomputes.load(), 1);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(count("hit") - hits_before, kWaiters - 1);
  // The throw and the one recompute.
  EXPECT_EQ(count("miss") - misses_before, 2.0);
  EXPECT_EQ(count("entries"), 2.0);  // Keys 0 and 1.
  registry.set_enabled(false);
}

TEST(OnceCache, ContainsOnlyComputedKeysAndCountsNoLookup) {
  OnceCache<int, int> cache;
  EXPECT_FALSE(cache.contains(1));
  EXPECT_THROW(
      cache.get_or_compute(1, []() -> int { throw std::runtime_error("x"); }),
      std::runtime_error);
  EXPECT_FALSE(cache.contains(1));  // A failed computation caches nothing.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get_or_compute(1, [] { return 5; }), 5);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.size(), 1u);  // contains() adds no entry.
}

}  // namespace
}  // namespace hars
