#include "mphars/mphars_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/power_profiler.hpp"
#include "hmp/platform_spec.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

struct MpFixture {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  SimBackend backend{engine};
  std::vector<std::unique_ptr<DataParallelApp>> apps;
  std::vector<AppId> ids;
  std::unique_ptr<MpHarsManager> manager;

  void add_app(double work) {
    DataParallelConfig cfg;
    cfg.threads = 8;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, work, 0.0, 0.0, 1};
    cfg.seed = apps.size() + 1;
    apps.push_back(std::make_unique<DataParallelApp>("a", cfg));
    ids.push_back(engine.add_app(apps.back().get()));
  }

  void make_manager(SearchPolicy policy = SearchPolicy::kExhaustive) {
    MpHarsConfig config;
    config.policy = policy;
    manager = std::make_unique<MpHarsManager>(
        backend, profile_power(engine.machine(), engine.power_model()), config);
    engine.set_manager(manager.get());
  }
};

// Regression: non-positive target windows are rejected at registration
// and retargeting (they would zero every normalized-perf score).
TEST(MpHarsManager, RejectsNonPositiveTargets) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager();
  EXPECT_THROW(f.manager->register_app(
                   f.ids[0], MpHarsAppConfig{PerfTarget{-2.0, 1.0}, 5}),
               std::invalid_argument);
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(2.0), 5});
  EXPECT_THROW(f.manager->set_app_target(f.ids[0], PerfTarget{0.0, 0.0}),
               std::invalid_argument);
}

TEST(MpHarsManager, InitialAllocationIsEvenAndDisjoint) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(4.0);
  f.make_manager();
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(2.0), 5});
  f.manager->register_app(f.ids[1], MpHarsAppConfig{PerfTarget::around(2.0), 5});

  const AppNode* a = f.manager->registry().find(f.ids[0]);
  const AppNode* b = f.manager->registry().find(f.ids[1]);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->nprocs_b, 2);
  EXPECT_EQ(a->nprocs_l, 2);
  EXPECT_EQ(b->nprocs_b, 2);
  EXPECT_EQ(b->nprocs_l, 2);
  EXPECT_EQ((owned_big_mask(*a, 4) & owned_big_mask(*b, 4)).count(), 0);
  EXPECT_EQ((owned_little_mask(*a) & owned_little_mask(*b)).count(), 0);
}

TEST(MpHarsManager, CoresStayDisjointThroughoutAdaptation) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(6.0);
  f.make_manager();
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(1.5), 5});
  f.manager->register_app(f.ids[1], MpHarsAppConfig{PerfTarget::around(1.0), 5});
  for (int i = 0; i < 12; ++i) {
    f.engine.run_for(5 * kUsPerSec);
    const AppNode* a = f.manager->registry().find(f.ids[0]);
    const AppNode* b = f.manager->registry().find(f.ids[1]);
    EXPECT_EQ((owned_big_mask(*a, 4) & owned_big_mask(*b, 4)).count(), 0);
    EXPECT_EQ((owned_little_mask(*a) & owned_little_mask(*b)).count(), 0);
    // Free-count bookkeeping stays consistent.
    EXPECT_EQ(a->used_big_count() + b->used_big_count() +
                  f.manager->registry().fastest_cluster().free_count(),
              4);
  }
}

TEST(MpHarsManager, BothAppsReachTargets) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(4.0);
  f.make_manager();
  // Moderate targets both apps can reach with a half machine each.
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(1.5), 5});
  f.manager->register_app(f.ids[1], MpHarsAppConfig{PerfTarget::around(1.5), 5});
  f.engine.run_for(120 * kUsPerSec);
  EXPECT_NEAR(f.apps[0]->heartbeats().rate(), 1.5, 0.6);
  EXPECT_NEAR(f.apps[1]->heartbeats().rate(), 1.5, 0.6);
}

TEST(MpHarsManager, SingleAppCanUseWholeMachine) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager();
  f.manager->register_app(f.ids[0],
                          MpHarsAppConfig{PerfTarget::around(100.0), 5});
  f.engine.run_for(60 * kUsPerSec);
  const AppNode* a = f.manager->registry().find(f.ids[0]);
  // Underperforming with everything free: should grab most of the machine.
  EXPECT_GE(a->nprocs_b + a->nprocs_l, 6);
}

TEST(MpHarsManager, FreezingCountsDecrementOnHeartbeats) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager();
  // Huge target window: the app always "achieves", so no adaptation ever
  // decreases a frequency and re-arms the counts we plant below.
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget{0.1, 100.0}, 5});
  AppNode* a = const_cast<AppRegistry&>(f.manager->registry()).find(f.ids[0]);
  a->freezing_cnt_b = 3;
  a->freezing_cnt_l = 3;
  f.engine.run_for(10 * kUsPerSec);  // Many heartbeats elapse.
  EXPECT_EQ(a->freezing_cnt_b, 0);
  EXPECT_EQ(a->freezing_cnt_l, 0);
}

TEST(MpHarsManager, TraceAndStateAccessors) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager();
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(2.0), 5});
  f.engine.run_for(15 * kUsPerSec);
  EXPECT_FALSE(f.manager->trace(f.ids[0]).empty());
  EXPECT_TRUE(f.manager->trace(12345).empty());
  const SystemState s = f.manager->app_state(f.ids[0]);
  EXPECT_GE(s.big_cores + s.little_cores, 1);
}

TEST(MpHarsManager, IncrementalPolicyMovesOneStep) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager(SearchPolicy::kIncremental);
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(2.0), 5});
  SystemState prev = f.manager->app_state(f.ids[0]);
  for (int i = 0; i < 80; ++i) {
    f.engine.run_for(kUsPerSec / 2);
    const SystemState cur = f.manager->app_state(f.ids[0]);
    // At most one adaptation (distance 1) fits in half a second here.
    EXPECT_LE(manhattan_distance(cur, prev), 2);
    prev = cur;
  }
}

TEST(MpHarsManager, ThreeAppsPartitionWithoutOverlap) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(5.0);
  f.add_app(6.0);
  f.make_manager();
  for (AppId id : f.ids) {
    f.manager->register_app(id, MpHarsAppConfig{PerfTarget::around(0.8), 5});
  }
  f.engine.run_for(60 * kUsPerSec);
  // Pairwise disjoint core sets; free-count bookkeeping consistent.
  int used_big = 0;
  int used_little = 0;
  for (std::size_t i = 0; i < f.ids.size(); ++i) {
    const AppNode* a = f.manager->registry().find(f.ids[i]);
    used_big += a->used_big_count();
    used_little += a->used_little_count();
    for (std::size_t j = i + 1; j < f.ids.size(); ++j) {
      const AppNode* b = f.manager->registry().find(f.ids[j]);
      EXPECT_EQ((owned_big_mask(*a, 4) & owned_big_mask(*b, 4)).count(), 0);
      EXPECT_EQ((owned_little_mask(*a) & owned_little_mask(*b)).count(), 0);
    }
  }
  EXPECT_EQ(used_big + f.manager->registry().fastest_cluster().free_count(), 4);
  EXPECT_EQ(used_little + f.manager->registry().slowest_cluster().free_count(), 4);
}

TEST(MpHarsManager, LateRegistrationRebalancesShares) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(4.0);
  f.make_manager();
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(1.5), 5});
  const AppNode* a = f.manager->registry().find(f.ids[0]);
  EXPECT_EQ(a->nprocs_b + a->nprocs_l, 8);  // Alone: whole machine.
  f.manager->register_app(f.ids[1], MpHarsAppConfig{PerfTarget::around(1.5), 5});
  a = f.manager->registry().find(f.ids[0]);
  const AppNode* b = f.manager->registry().find(f.ids[1]);
  EXPECT_EQ(a->nprocs_b, 2);
  EXPECT_EQ(b->nprocs_b, 2);
  EXPECT_EQ(a->nprocs_l, 2);
  EXPECT_EQ(b->nprocs_l, 2);
}

TEST(MpHarsManager, UnregisterFreesCoresForSurvivors) {
  MpFixture f;
  f.add_app(4.0);
  f.add_app(4.0);
  f.make_manager();
  // Demanding targets: both apps want more than half the machine.
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(3.0), 5});
  f.manager->register_app(f.ids[1], MpHarsAppConfig{PerfTarget::around(3.0), 5});
  f.engine.run_for(30 * kUsPerSec);

  // App 1 "exits": its cores go back to the pool...
  ASSERT_TRUE(f.manager->unregister_app(f.ids[1]));
  EXPECT_FALSE(f.manager->unregister_app(f.ids[1]));  // Idempotent failure.
  f.engine.set_app_affinity(f.ids[1], CpuMask());     // Park its threads.
  const int free_after =
      f.manager->registry().fastest_cluster().free_count() +
      f.manager->registry().slowest_cluster().free_count();
  const AppNode* a = f.manager->registry().find(f.ids[0]);
  EXPECT_EQ(free_after + a->used_big_count() + a->used_little_count(), 8);

  // ...and the survivor can grow into them.
  f.engine.run_for(60 * kUsPerSec);
  a = f.manager->registry().find(f.ids[0]);
  EXPECT_GT(a->nprocs_b + a->nprocs_l, 4);
}

TEST(AppRegistryRemove, ReturnsSlotsToFreePool) {
  AppRegistry registry(4, 4);
  AppNode& a = registry.add(0);
  a.nprocs_b = 3;
  a.nprocs_l = 2;
  allocate_core_set(a, registry.fastest_cluster(), registry.slowest_cluster(), 4);
  EXPECT_EQ(registry.fastest_cluster().free_count(), 1);
  EXPECT_EQ(registry.slowest_cluster().free_count(), 2);
  ASSERT_TRUE(registry.remove(0));
  EXPECT_EQ(registry.fastest_cluster().free_count(), 4);
  EXPECT_EQ(registry.slowest_cluster().free_count(), 4);
  EXPECT_EQ(registry.find(0), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.remove(0));
}

TEST(MpHarsManager, OverheadReported) {
  MpFixture f;
  f.add_app(4.0);
  f.make_manager();
  f.manager->register_app(f.ids[0], MpHarsAppConfig{PerfTarget::around(2.0), 5});
  f.engine.run_for(20 * kUsPerSec);
  EXPECT_GT(f.engine.manager_overhead_us(), 0);
}

}  // namespace
}  // namespace hars
