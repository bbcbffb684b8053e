// Idle-pull spill-over (EAS-style balancing; §3.1.4 option 3) tests.
#include <gtest/gtest.h>

#include "sched/gts.hpp"

namespace hars {
namespace {

std::vector<SimThread> hot_threads(const Machine& machine, int n) {
  std::vector<SimThread> threads(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads[static_cast<std::size_t>(i)].id = i;
    threads[static_cast<std::size_t>(i)].affinity = machine.all_mask();
    threads[static_cast<std::size_t>(i)].runnable = true;
    threads[static_cast<std::size_t>(i)].load.prime(1.0);
  }
  return threads;
}

TEST(GtsSpill, StockGtsLeavesLittleIdle) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;  // idle_pull = false.
  auto threads = hot_threads(machine, 8);
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_EQ(machine.core_type(t.core), CoreType::kBig);
  }
}

TEST(GtsSpill, IdlePullUsesLittleUnderOversubscription) {
  const Machine machine = Machine::exynos5422();
  GtsConfig config;
  config.idle_pull = true;
  GtsScheduler gts(config);
  auto threads = hot_threads(machine, 8);
  gts.assign(machine, threads);
  int on_little = 0;
  std::vector<int> per_core(8, 0);
  for (const SimThread& t : threads) {
    on_little += machine.core_type(t.core) == CoreType::kLittle;
    ++per_core[static_cast<std::size_t>(t.core)];
  }
  EXPECT_EQ(on_little, 4);  // 8 threads spread 1 per core.
  for (int c = 0; c < 8; ++c) EXPECT_EQ(per_core[static_cast<std::size_t>(c)], 1);
}

TEST(GtsSpill, NoPullWhenNoCoreIsOverloaded) {
  const Machine machine = Machine::exynos5422();
  GtsConfig config;
  config.idle_pull = true;
  GtsScheduler gts(config);
  auto threads = hot_threads(machine, 3);  // Fits on big with room.
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_EQ(machine.core_type(t.core), CoreType::kBig);
  }
}

TEST(GtsSpill, PullRespectsAffinity) {
  const Machine machine = Machine::exynos5422();
  GtsConfig config;
  config.idle_pull = true;
  GtsScheduler gts(config);
  auto threads = hot_threads(machine, 8);
  // All threads pinned to the big cluster: idle littles must not pull.
  for (SimThread& t : threads) t.affinity = machine.fastest_mask();
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_EQ(machine.core_type(t.core), CoreType::kBig);
  }
}

TEST(GtsSpill, PullRespectsOnlineMask) {
  Machine machine = Machine::exynos5422();
  machine.set_online_mask(CpuMask::range(4, 4) | CpuMask::single(0));
  GtsConfig config;
  config.idle_pull = true;
  GtsScheduler gts(config);
  auto threads = hot_threads(machine, 8);
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_TRUE(machine.is_online(t.core));
  }
}

TEST(GtsSpill, PullCountsAsMigration) {
  const Machine machine = Machine::exynos5422();
  GtsConfig config;
  config.idle_pull = true;
  GtsScheduler gts(config);
  auto threads = hot_threads(machine, 8);
  gts.assign(machine, threads);
  std::int64_t migrations = 0;
  for (const SimThread& t : threads) migrations += t.migrations;
  EXPECT_GT(migrations, 0);
}

}  // namespace
}  // namespace hars
