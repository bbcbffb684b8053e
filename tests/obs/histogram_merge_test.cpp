// Thread-local histogram shards must merge exactly: N workers each
// observing a known value sequence yields precise totals in the
// snapshot, whether the workers are still alive (live-shard merge) or
// have exited (retired-accumulator merge via the ShardOwner destructor).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fan_out.hpp"

namespace hars {
namespace obs {
namespace {

class HistogramMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().set_enabled(true);
    MetricsRegistry::instance().reset();
    ensure_thread_registered();
  }
  void TearDown() override {
    MetricsRegistry::instance().set_enabled(false);
    MetricsRegistry::instance().detach_current_thread();
  }
};

TEST_F(HistogramMergeTest, PoolWorkersMergeExactly) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const HistId hist = reg.register_histogram("test.merge.pool_hist",
                                             {1.0, 2.0, 4.0}, "merge test");
  const CounterId hits = reg.register_counter("test.merge.pool_hits", "");

  constexpr int kTasks = 64;
  constexpr int kObsPerTask = 100;
  {
    TaskPool pool(4);
    pool.run_each(kTasks, [&](std::size_t) {
      ensure_thread_registered();
      for (int i = 0; i < kObsPerTask; ++i) {
        // Cycle 0.5, 1.5, 3.0, 8.0 — one value per bucket incl. +Inf.
        static constexpr double kValues[] = {0.5, 1.5, 3.0, 8.0};
        hist_observe(hist, kValues[i % 4]);
        counter_add(hits);
      }
    });

    // Workers still alive: live shards merge into the snapshot.
    const MetricsSnapshot live = reg.take_snapshot();
    const MetricValue* v = live.find("test.merge.pool_hist");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->count, static_cast<std::uint64_t>(kTasks) * kObsPerTask);
  }

  // Pool destroyed: every worker's ShardOwner retired its shard; totals
  // must survive unchanged.
  const MetricsSnapshot snap = reg.take_snapshot();
  const MetricValue* v = snap.find("test.merge.pool_hist");
  ASSERT_NE(v, nullptr);
  const std::uint64_t total = static_cast<std::uint64_t>(kTasks) * kObsPerTask;
  EXPECT_EQ(v->count, total);
  // 0.5+1.5+3.0+8.0 = 13.0 per cycle of 4; sums of binary fractions are
  // exact in double.
  EXPECT_EQ(v->sum, 13.0 * (total / 4));
  ASSERT_EQ(v->buckets.size(), 4u);  // 3 bounds + Inf.
  EXPECT_EQ(v->buckets[0], total / 4);  // 0.5 <= 1
  EXPECT_EQ(v->buckets[1], total / 4);  // 1.5 <= 2
  EXPECT_EQ(v->buckets[2], total / 4);  // 3.0 <= 4
  EXPECT_EQ(v->buckets[3], total / 4);  // 8.0 -> +Inf

  const MetricValue* c = snap.find("test.merge.pool_hits");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter, total);
}

TEST_F(HistogramMergeTest, ConcurrentObserversDoNotLoseWrites) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const HistId hist = reg.register_histogram("test.merge.hammer",
                                             {10.0, 100.0, 1000.0}, "");
  constexpr int kTasks = 200;
  constexpr int kObsPerTask = 500;
  {
    TaskPool pool(8);
    pool.run_each(kTasks, [&](std::size_t t) {
      ensure_thread_registered();
      for (std::size_t i = 0; i < kObsPerTask; ++i) {
        hist_observe(hist, static_cast<double>((t + i) % 2000));
      }
    });
  }
  const MetricsSnapshot snap = reg.take_snapshot();
  const MetricValue* v = snap.find("test.merge.hammer");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, static_cast<std::uint64_t>(kTasks) * kObsPerTask);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t n : v->buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, v->count);
}

}  // namespace
}  // namespace obs
}  // namespace hars
