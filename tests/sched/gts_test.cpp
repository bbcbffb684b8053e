#include "sched/gts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "hmp/platform_registry.hpp"
#include "hmp/platform_spec.hpp"

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

// The cores GTS prefers for a runnable thread with load `load`, current
// core `core` and affinity `affinity`, read off full assign() runs: for
// each core k, every other core gets one pinned runnable filler placed
// ahead of the thread, so the thread lands on k exactly when k is among
// the cores it prefers (the only idle core wins any balance over a mask
// holding it; a one-core mask wins regardless).
CpuMask preferred_by_assign(const Machine& machine, double load, CoreId core,
                            CpuMask affinity) {
  CpuMask preferred;
  for (CoreId k = 0; k < machine.num_cores(); ++k) {
    std::vector<SimThread> threads;
    for (CoreId j = 0; j < machine.num_cores(); ++j) {
      if (j == k) continue;
      SimThread filler;
      filler.id = static_cast<ThreadId>(threads.size());
      filler.affinity = CpuMask::single(j);
      filler.core = j;
      filler.runnable = true;
      threads.push_back(filler);
    }
    SimThread t;
    t.id = static_cast<ThreadId>(threads.size());
    t.affinity = affinity;
    t.core = core;
    t.runnable = true;
    t.load.prime(load);
    threads.push_back(t);
    GtsScheduler gts;
    gts.assign(machine, threads);
    if (threads.back().core == k) preferred = preferred | CpuMask::single(k);
  }
  return preferred;
}

/// Where a full assign() run puts a lone thread.
CoreId placement_by_assign(const Machine& machine, double load, CoreId core,
                           CpuMask affinity) {
  std::vector<SimThread> threads(1);
  threads[0].affinity = affinity;
  threads[0].core = core;
  threads[0].runnable = true;
  threads[0].load.prime(load);
  GtsScheduler gts;
  gts.assign(machine, threads);
  return threads[0].core;
}

// A quiet span checks each tick's advanced loads against load_bounds()
// instead of re-deriving the placement, so each interval must hold
// exactly the loads at which a full run prefers the cores it recorded —
// the recorded tier widened by its neighbours with the same preferred
// cores — and those loads keep the placement.
TEST(GtsScheduler, LoadBoundsKeepThePlacement) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const GtsConfig cfg;
  const double up = cfg.up_threshold;
  const double down = cfg.down_threshold;
  const double probes[] = {up,
                           std::nextafter(up, -kInf),
                           std::nextafter(up, kInf),
                           down,
                           std::nextafter(down, -kInf),
                           std::nextafter(down, kInf),
                           0.0,
                           1.0};
  // One load per tier: up, down, between.
  const double tier_loads[] = {0.95, 0.1, 0.5};
  int exact_tier_cases = 0;
  int widened_cases = 0;
  for (const char* platform : {"exynos5422", "sd855"}) {
    const Machine machine =
        PlatformRegistry::instance().find(platform)->make_machine();
    // A little core and the first core of every faster cluster.
    std::vector<CoreId> cores;
    for (ClusterId cl = 0; cl < machine.num_clusters(); ++cl) {
      cores.push_back(machine.cluster_mask(cl).first());
    }
    for (CoreId core : cores) {
      for (CpuMask affinity : {machine.all_mask(), CpuMask::single(core)}) {
        CpuMask tier_cores[3];
        for (int tier = 0; tier < 3; ++tier) {
          tier_cores[tier] =
              preferred_by_assign(machine, tier_loads[tier], core, affinity);
        }
        const bool all_differ = tier_cores[0].bits() != tier_cores[1].bits() &&
                                tier_cores[1].bits() != tier_cores[2].bits() &&
                                tier_cores[0].bits() != tier_cores[2].bits();
        for (int tier = 0; tier < 3; ++tier) {
          const double recorded = tier_loads[tier];
          std::vector<SimThread> threads(1);
          threads[0].affinity = affinity;
          threads[0].core = core;
          threads[0].runnable = true;
          threads[0].load.prime(recorded);
          GtsScheduler gts(cfg);
          gts.assign(machine, threads);
          double lo = 0.0;
          double hi = 0.0;
          ASSERT_TRUE(gts.load_bounds(threads, &lo, &hi));
          const CoreId placed =
              placement_by_assign(machine, recorded, core, affinity);
          for (double x : probes) {
            const bool inside = lo <= x && x <= hi;
            const bool same_cores =
                preferred_by_assign(machine, x, core, affinity).bits() ==
                tier_cores[tier].bits();
            EXPECT_EQ(inside, same_cores)
                << platform << " core " << core << " affinity "
                << affinity.bits() << " tier " << tier << " load " << x;
            if (inside) {
              EXPECT_EQ(placement_by_assign(machine, x, core, affinity), placed)
                  << platform << " core " << core << " load " << x;
            }
            if (all_differ) {
              EXPECT_EQ(inside, gts.tier_of(x) == tier)
                  << platform << " core " << core << " load " << x;
            }
            widened_cases += inside && gts.tier_of(x) != tier;
          }
          exact_tier_cases += all_differ;
        }
      }
    }
  }
  // Both kinds occur: sd855's unpinned mid cluster prefers different cores
  // in each tier, and a one-core affinity makes the whole line one interval.
  EXPECT_GT(exact_tier_cases, 0);
  EXPECT_GT(widened_cases, 0);
}

// assign() places no sleeping thread, so its load bounds nothing.
TEST(GtsScheduler, SleepingThreadsHaveNoLoadBounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Machine machine = Machine::exynos5422();
  GtsScheduler gts;
  auto threads = make_threads(machine, 3);
  threads[0].load.prime(0.95);
  threads[1].load.prime(0.1);
  threads[1].runnable = false;
  threads[2].load.prime(0.5);
  threads[2].runnable = false;
  gts.assign(machine, threads);
  gts.assign(machine, threads);  // A fixed point now.
  std::vector<double> lo(threads.size());
  std::vector<double> hi(threads.size());
  ASSERT_TRUE(gts.load_bounds(threads, lo.data(), hi.data()));
  for (std::size_t i = 1; i < threads.size(); ++i) {
    EXPECT_EQ(lo[i], -kInf) << "thread " << i;
    EXPECT_EQ(hi[i], kInf) << "thread " << i;
  }
  // A sleeper's load may cross every threshold without ending the fixed
  // point.
  threads[1].load.prime(1.0);
  threads[2].load.prime(0.0);
  EXPECT_TRUE(gts.placement_fixed_point(machine, threads));
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
