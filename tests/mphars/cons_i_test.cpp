#include "mphars/cons_i.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "hmp/platform_spec.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

TEST(ConsPerfScore, Formula) {
  const Machine m = Machine::exynos5422();
  // perfScore = CB * r0 * fB/f0 + CL * fL/f0.
  const SystemState s{4, 4, 8, 5};  // 1.6 / 1.3 GHz.
  EXPECT_NEAR(cons_perf_score(m, s, 1.5, 1.0), 4 * 1.5 * 1.6 + 4 * 1.3, 1e-9);
  const SystemState small{1, 1, 0, 0};  // 0.8 / 0.8.
  EXPECT_NEAR(cons_perf_score(m, small, 1.5, 1.0), 1.2 + 0.8, 1e-9);
}

struct ConsFixture {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  SimBackend backend{engine};
  std::vector<std::unique_ptr<DataParallelApp>> apps;
  std::vector<AppId> ids;

  void add_app(double work) {
    DataParallelConfig cfg;
    cfg.threads = 8;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, work, 0.0, 0.0, 1};
    cfg.seed = apps.size() + 1;
    apps.push_back(std::make_unique<DataParallelApp>("a", cfg));
    ids.push_back(engine.add_app(apps.back().get()));
  }
};

TEST(ConsIManager, StartsAtMaxState) {
  ConsFixture f;
  ConsIManager cons(f.backend);
  EXPECT_EQ(cons.global_state(),
            StateSpace::from_machine(f.engine.machine()).max_state());
  EXPECT_EQ(f.engine.machine().online_mask().count(), 8);
}

TEST(ConsIManager, IncreasesWhenUnderperforming) {
  ConsFixture f;
  f.add_app(4.0);
  ConsIManager cons(f.backend);
  cons.register_app(f.ids[0], ConsIAppConfig{PerfTarget::around(100.0), 5});
  f.engine.set_manager(&cons);
  f.engine.run_for(30 * kUsPerSec);
  // Cannot reach 100 hb/s: stays at (or returns to) the max state.
  EXPECT_EQ(cons.global_state(),
            StateSpace::from_machine(f.engine.machine()).max_state());
}

TEST(ConsIManager, DecreasesWhenAllOverperform) {
  ConsFixture f;
  f.add_app(4.0);
  ConsIManager cons(f.backend);
  cons.register_app(f.ids[0], ConsIAppConfig{PerfTarget::around(2.0), 5});
  f.engine.set_manager(&cons);
  f.engine.run_for(90 * kUsPerSec);
  const SystemState s = cons.global_state();
  const SystemState max_state =
      StateSpace::from_machine(f.engine.machine()).max_state();
  EXPECT_NE(s, max_state);
  EXPECT_LT(cons_perf_score(f.engine.machine(), s, 1.5, 1.0),
            cons_perf_score(f.engine.machine(), max_state, 1.5, 1.0));
  // And it should be roughly within the target window by then.
  EXPECT_NEAR(f.apps[0]->heartbeats().rate(), 2.0, 1.0);
}

TEST(ConsIManager, NoDecreaseWhileAnotherAppMerelyAchieves) {
  // The paper's case-4 failure mode: one app overperforms, but the other
  // only achieves -> conservative model refuses to decrease.
  ConsFixture f;
  f.add_app(4.0);   // Will overperform its easy target.
  f.add_app(4.0);   // Target set exactly at its achieved rate.
  ConsIManager cons(f.backend);
  f.engine.set_manager(&cons);
  // First, find the shared-state rate with a dry run.
  f.engine.run_for(10 * kUsPerSec);
  const double shared_rate = f.apps[1]->heartbeats().rate();
  cons.register_app(f.ids[0], ConsIAppConfig{PerfTarget::around(shared_rate / 4.0), 5});
  cons.register_app(f.ids[1], ConsIAppConfig{PerfTarget::around(shared_rate, 0.30), 5});
  const SystemState before = cons.global_state();
  f.engine.run_for(40 * kUsPerSec);
  EXPECT_EQ(cons.global_state(), before);  // KEEP throughout.
}

TEST(ConsIManager, TraceRecorded) {
  ConsFixture f;
  f.add_app(4.0);
  ConsIManager cons(f.backend);
  cons.register_app(f.ids[0], ConsIAppConfig{PerfTarget::around(2.0), 5});
  f.engine.set_manager(&cons);
  f.engine.run_for(20 * kUsPerSec);
  EXPECT_FALSE(cons.trace(f.ids[0]).empty());
  EXPECT_TRUE(cons.trace(999).empty());
}

TEST(ConsIManager, HotplugReflectsGlobalState) {
  ConsFixture f;
  f.add_app(4.0);
  ConsIManager cons(f.backend);
  cons.register_app(f.ids[0], ConsIAppConfig{PerfTarget::around(1.0), 5});
  f.engine.set_manager(&cons);
  f.engine.run_for(120 * kUsPerSec);
  const SystemState s = cons.global_state();
  EXPECT_EQ(f.engine.machine().online_mask().count(),
            s.big_cores + s.little_cores);
}

}  // namespace
}  // namespace hars
