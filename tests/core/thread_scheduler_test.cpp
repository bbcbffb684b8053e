#include "core/thread_scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "hmp/platform_spec.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

int count_big(const std::vector<bool>& plan) {
  int n = 0;
  for (bool b : plan) n += b;
  return n;
}

TEST(PlanThreadPlacement, ChunkPutsConsecutiveLowIdsOnLittle) {
  // Figure 3.2(a): T0-T3 little, T4-T7 big.
  const auto plan = plan_thread_placement(ThreadSchedulerKind::kChunk, 8, 4, 4);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(plan[static_cast<std::size_t>(i)]);
  for (int i = 4; i < 8; ++i) EXPECT_TRUE(plan[static_cast<std::size_t>(i)]);
}

TEST(PlanThreadPlacement, InterleavedAlternatesStartingLittle) {
  // Figure 3.2(b): T0(L), T1(B), T2(L), T3(B), ...
  const auto plan =
      plan_thread_placement(ThreadSchedulerKind::kInterleaved, 8, 4, 4);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(plan[static_cast<std::size_t>(i)], i % 2 == 1) << "thread " << i;
  }
}

TEST(PlanThreadPlacement, QuotasRespectedWhenUnequal) {
  for (auto kind : {ThreadSchedulerKind::kChunk, ThreadSchedulerKind::kInterleaved}) {
    for (int tb = 0; tb <= 8; ++tb) {
      const auto plan = plan_thread_placement(kind, 8, tb, 8 - tb);
      EXPECT_EQ(count_big(plan), tb) << thread_scheduler_name(kind);
    }
  }
}

TEST(PlanThreadPlacement, InterleavedSpillsAfterQuotaExhausted) {
  // tb=6, tl=2: L,B,L,B,B,B,B,B.
  const auto plan =
      plan_thread_placement(ThreadSchedulerKind::kInterleaved, 8, 6, 2);
  const std::vector<bool> expected{false, true, false, true, true, true, true, true};
  EXPECT_EQ(plan, expected);
}

TEST(PlanThreadPlacement, AllOneSide) {
  const auto all_big = plan_thread_placement(ThreadSchedulerKind::kChunk, 4, 4, 0);
  EXPECT_EQ(count_big(all_big), 4);
  const auto all_little =
      plan_thread_placement(ThreadSchedulerKind::kInterleaved, 4, 0, 4);
  EXPECT_EQ(count_big(all_little), 0);
}

TEST(PlanThreadPlacement, EmptyPlan) {
  EXPECT_TRUE(plan_thread_placement(ThreadSchedulerKind::kChunk, 0, 0, 0).empty());
}

TEST(ThreadSchedulerName, Names) {
  EXPECT_STREQ(thread_scheduler_name(ThreadSchedulerKind::kChunk), "chunk");
  EXPECT_STREQ(thread_scheduler_name(ThreadSchedulerKind::kInterleaved),
               "interleaved");
}

TEST(ApplyThreadSchedule, SetsAffinityMasks) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelConfig cfg;
  cfg.threads = 8;
  cfg.workload = {WorkloadShape::kStable, 8.0, 0.0, 0.0, 1};
  DataParallelApp app("t", cfg);
  const AppId id = engine.add_app(&app);
  SimBackend backend(engine);

  ThreadAssignment a;
  a.tb = 5;
  a.tl = 3;
  const CpuMask big_set = CpuMask::range(4, 3);     // 3 big cores.
  const CpuMask little_set = CpuMask::range(0, 2);  // 2 little cores.
  apply_thread_schedule(backend, id, ThreadSchedulerKind::kChunk, a, big_set,
                        little_set);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine.thread_affinity(id, i), little_set) << i;
  }
  for (int i = 3; i < 8; ++i) {
    EXPECT_EQ(engine.thread_affinity(id, i), big_set) << i;
  }
}

TEST(ApplyThreadSchedule, EmptySideFallsBackToUnion) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelConfig cfg;
  cfg.threads = 2;
  cfg.workload = {WorkloadShape::kStable, 2.0, 0.0, 0.0, 1};
  DataParallelApp app("t", cfg);
  const AppId id = engine.add_app(&app);
  SimBackend backend(engine);

  ThreadAssignment a;
  a.tb = 0;
  a.tl = 2;
  apply_thread_schedule(backend, id, ThreadSchedulerKind::kChunk, a,
                        CpuMask::range(4, 2), CpuMask());
  // Little side empty -> both threads fall back to the union.
  EXPECT_EQ(engine.thread_affinity(id, 0), CpuMask::range(4, 2));
  EXPECT_EQ(engine.thread_affinity(id, 1), CpuMask::range(4, 2));
}

}  // namespace
}  // namespace hars
