#include "sched/gts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace hars {
namespace {

std::vector<SimThread> make_threads(const Machine& machine, int n,
                                    double load = 1.0) {
  std::vector<SimThread> threads(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads[static_cast<std::size_t>(i)].id = i;
    threads[static_cast<std::size_t>(i)].local_index = i;
    threads[static_cast<std::size_t>(i)].affinity = machine.all_mask();
    threads[static_cast<std::size_t>(i)].runnable = true;
    threads[static_cast<std::size_t>(i)].load.prime(load);
  }
  return threads;
}

TEST(GtsScheduler, CpuBoundThreadsCollectOnBigCluster) {
  // The paper's §4.1.1 observation: GTS migrates every hot thread to big,
  // leaving the little cluster idle even when big is oversubscribed.
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 8, /*load=*/1.0);
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_EQ(machine.core_type(t.core), CoreType::kBig) << "thread " << t.id;
  }
}

TEST(GtsScheduler, BigClusterBalancedTwoPerCore) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 8, 1.0);
  gts.assign(machine, threads);
  std::vector<int> per_core(8, 0);
  for (const SimThread& t : threads) ++per_core[static_cast<std::size_t>(t.core)];
  for (CoreId c = 4; c < 8; ++c) EXPECT_EQ(per_core[static_cast<std::size_t>(c)], 2);
}

TEST(GtsScheduler, ColdThreadsGoLittle) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 4, /*load=*/0.1);
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_EQ(machine.core_type(t.core), CoreType::kLittle);
  }
}

TEST(GtsScheduler, MidLoadSticksToCurrentCluster) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 1, /*load=*/0.5);
  threads[0].core = 2;  // Already on little.
  gts.assign(machine, threads);
  EXPECT_EQ(machine.core_type(threads[0].core), CoreType::kLittle);

  threads[0].core = 5;  // Already on big.
  gts.assign(machine, threads);
  EXPECT_EQ(machine.core_type(threads[0].core), CoreType::kBig);
}

TEST(GtsScheduler, RespectsAffinityOverLoadPreference) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 2, 1.0);  // Hot: wants big.
  threads[0].affinity = CpuMask::range(0, 4);    // Pinned little.
  threads[1].affinity = CpuMask::single(6);
  gts.assign(machine, threads);
  EXPECT_EQ(machine.core_type(threads[0].core), CoreType::kLittle);
  EXPECT_EQ(threads[1].core, 6);
}

TEST(GtsScheduler, EmptyAffinityFallsBackToOnline) {
  Machine machine = Machine::exynos5422();
  machine.set_online_mask(CpuMask::range(0, 2));
  GtsScheduler gts;
  auto threads = make_threads(machine, 1, 1.0);
  threads[0].affinity = CpuMask::range(6, 2);  // Fully offline set.
  gts.assign(machine, threads);
  EXPECT_GE(threads[0].core, 0);
  EXPECT_LT(threads[0].core, 2);
}

TEST(GtsScheduler, OnlyOnlineCoresUsed) {
  Machine machine = Machine::exynos5422();
  machine.set_online_mask(CpuMask::range(0, 4) | CpuMask::single(4));
  GtsScheduler gts;
  auto threads = make_threads(machine, 6, 1.0);
  gts.assign(machine, threads);
  for (const SimThread& t : threads) {
    EXPECT_TRUE(machine.is_online(t.core)) << "core " << t.core;
  }
}

TEST(GtsScheduler, SleepingThreadsKeepCoreButConsumeNothing) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 2, 1.0);
  threads[1].runnable = false;
  threads[1].core = 3;
  gts.assign(machine, threads);
  EXPECT_EQ(threads[1].core, 3);  // Untouched.
}

TEST(GtsScheduler, MigrationCountsTracked) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 1, 1.0);
  threads[0].core = 0;  // On little, but hot -> must migrate up.
  gts.assign(machine, threads);
  EXPECT_EQ(machine.core_type(threads[0].core), CoreType::kBig);
  EXPECT_EQ(threads[0].migrations, 1);
  const CoreId settled = threads[0].core;
  gts.assign(machine, threads);
  EXPECT_EQ(threads[0].core, settled);
  EXPECT_EQ(threads[0].migrations, 1);  // Sticky afterwards.
}

TEST(GtsScheduler, BalancesWithinLittleForColdThreads) {
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 4, 0.05);
  gts.assign(machine, threads);
  std::vector<int> per_core(8, 0);
  for (const SimThread& t : threads) ++per_core[static_cast<std::size_t>(t.core)];
  for (CoreId c = 0; c < 4; ++c) EXPECT_EQ(per_core[static_cast<std::size_t>(c)], 1);
}

TEST(GtsScheduler, ConfigThresholdsExposed) {
  GtsConfig cfg;
  cfg.up_threshold = 0.9;
  cfg.down_threshold = 0.2;
  GtsScheduler gts(cfg);
  EXPECT_DOUBLE_EQ(gts.config().up_threshold, 0.9);
  EXPECT_DOUBLE_EQ(gts.config().down_threshold, 0.2);
}

// A quiet span checks each tick's advanced loads against load_bounds()
// instead of re-deriving tiers, so each interval must hold exactly the
// loads tier_of() puts in the recorded tier.
TEST(GtsScheduler, LoadBoundsHoldExactlyTheRecordedTier) {
  const Machine machine = Machine::exynos5422();
  GtsConfig cfg;
  GtsScheduler gts(cfg);
  const double up = cfg.up_threshold;
  const double down = cfg.down_threshold;
  // One thread per tier: up, down, between.
  auto threads = make_threads(machine, 3);
  threads[0].load.prime(0.95);
  threads[1].load.prime(0.1);
  threads[2].load.prime(0.5);
  gts.assign(machine, threads);

  std::vector<double> lo(threads.size());
  std::vector<double> hi(threads.size());
  ASSERT_TRUE(gts.load_bounds(threads, lo.data(), hi.data()));

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double probes[] = {up,
                           std::nextafter(up, -kInf),
                           std::nextafter(up, kInf),
                           down,
                           std::nextafter(down, -kInf),
                           std::nextafter(down, kInf),
                           0.0,
                           1.0};
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const std::uint8_t tier = gts.tier_of(threads[i].load.value());
    EXPECT_EQ(tier, static_cast<std::uint8_t>(i));
    for (double x : probes) {
      EXPECT_EQ(lo[i] <= x && x <= hi[i], gts.tier_of(x) == tier)
          << "thread " << i << " load " << x;
    }
  }
}

TEST(Scheduler, DefaultHasNoLoadBounds) {
  struct Fixed final : Scheduler {
    void assign(const Machine&, std::vector<SimThread>&) override {}
    const char* name() const override { return "fixed"; }
  };
  const Machine machine = Machine::exynos5422();
  auto threads = make_threads(machine, 2);
  std::vector<double> lo(threads.size());
  std::vector<double> hi(threads.size());
  Fixed fixed;
  EXPECT_FALSE(fixed.load_bounds(threads, lo.data(), hi.data()));
}

}  // namespace
}  // namespace hars
