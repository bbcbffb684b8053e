#include <gtest/gtest.h>

#include <memory>

#include "apps/parsec.hpp"
#include "apps/pipeline_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/thread_scheduler.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

int count_big(const std::vector<bool>& plan) {
  int n = 0;
  for (bool b : plan) n += b;
  return n;
}

TEST(HierarchicalPlacement, EvenSplitAcrossEqualGroups) {
  // Two groups of 4 threads, T_B = 4: each group gets 2 big slots.
  const auto plan = plan_hierarchical_placement({4, 4}, 4, 4);
  ASSERT_EQ(plan.size(), 8u);
  int big_first = 0;
  int big_second = 0;
  for (int i = 0; i < 4; ++i) big_first += plan[static_cast<std::size_t>(i)];
  for (int i = 4; i < 8; ++i) big_second += plan[static_cast<std::size_t>(i)];
  EXPECT_EQ(big_first, 2);
  EXPECT_EQ(big_second, 2);
}

TEST(HierarchicalPlacement, FerretStagesEachGetBigShare) {
  // Ferret's groups [1,1,2,2,1,1] with T_B = 4: the two heavy stages must
  // each receive at least one big slot.
  const std::vector<int> groups{1, 1, 2, 2, 1, 1};
  const auto plan = plan_hierarchical_placement(groups, 4, 4);
  ASSERT_EQ(plan.size(), 8u);
  EXPECT_EQ(count_big(plan), 4);
  // Threads 2-3 are stage 2, threads 4-5 stage 3.
  EXPECT_TRUE(plan[2] || plan[3]);
  EXPECT_TRUE(plan[4] || plan[5]);
}

TEST(HierarchicalPlacement, QuotaNeverExceedsGroupSize) {
  const std::vector<int> groups{1, 6, 1};
  for (int tb = 0; tb <= 8; ++tb) {
    const auto plan = plan_hierarchical_placement(groups, tb, 8 - tb);
    EXPECT_EQ(count_big(plan), tb) << "tb=" << tb;
    // Group 0 (thread 0) and group 2 (thread 7) are single threads.
    int single_bigs = plan[0] + plan[7];
    EXPECT_LE(single_bigs, 2);
  }
}

TEST(HierarchicalPlacement, AllBigAllLittle) {
  const std::vector<int> groups{2, 3, 3};
  const auto all_big = plan_hierarchical_placement(groups, 8, 0);
  EXPECT_EQ(count_big(all_big), 8);
  const auto all_little = plan_hierarchical_placement(groups, 0, 8);
  EXPECT_EQ(count_big(all_little), 0);
}

TEST(HierarchicalPlacement, EmptyGroups) {
  EXPECT_TRUE(plan_hierarchical_placement({}, 0, 0).empty());
}

TEST(HierarchicalPlacement, LargestRemainderFavorsBiggerGroups) {
  // Groups 5+3, T_B = 4: ideal quotas 2.5 / 1.5 -> 3 / 1 or 2 / 2; the
  // larger group must get at least as many slots.
  const auto plan = plan_hierarchical_placement({5, 3}, 4, 4);
  int big_a = 0;
  int big_b = 0;
  for (int i = 0; i < 5; ++i) big_a += plan[static_cast<std::size_t>(i)];
  for (int i = 5; i < 8; ++i) big_b += plan[static_cast<std::size_t>(i)];
  EXPECT_EQ(big_a + big_b, 4);
  EXPECT_GE(big_a, big_b);
}

TEST(HierarchicalApply, UsesAppThreadGroups) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  auto app = make_parsec_app(ParsecBenchmark::kFerret);
  const AppId id = engine.add_app(app.get());
  SimBackend backend(engine);

  ThreadAssignment a;
  a.tb = 4;
  a.tl = 4;
  const CpuMask big_set = CpuMask::range(4, 4);
  const CpuMask little_set = CpuMask::range(0, 4);
  apply_thread_schedule(backend, id, ThreadSchedulerKind::kHierarchical, a,
                        big_set, little_set);
  // Heavy stages (threads 2-3 and 4-5) each have one big + one little.
  const bool t2_big = engine.thread_affinity(id, 2) == big_set;
  const bool t3_big = engine.thread_affinity(id, 3) == big_set;
  EXPECT_NE(t2_big, t3_big);
  const bool t4_big = engine.thread_affinity(id, 4) == big_set;
  const bool t5_big = engine.thread_affinity(id, 5) == big_set;
  EXPECT_NE(t4_big, t5_big);
}

TEST(ThreadGroupSizes, DefaultsToOneFlatGroup) {
  auto app = make_parsec_app(ParsecBenchmark::kSwaptions);
  EXPECT_EQ(app->thread_group_sizes(), std::vector<int>{8});
}

TEST(ThreadGroupSizes, PipelineReportsStages) {
  auto app = make_parsec_app(ParsecBenchmark::kFerret);
  EXPECT_EQ(app->thread_group_sizes(), (std::vector<int>{1, 1, 2, 2, 1, 1}));
}

TEST(SchedulerNames, IncludesHierarchical) {
  EXPECT_STREQ(thread_scheduler_name(ThreadSchedulerKind::kHierarchical),
               "hierarchical");
}

}  // namespace
}  // namespace hars
