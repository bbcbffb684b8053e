#include "hmp/sim_engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "hmp/platform_spec.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

DataParallelConfig simple_config(int threads = 4, double work = 2.0) {
  DataParallelConfig cfg;
  cfg.threads = threads;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kStable, work, 0.0, 0.0, 1};
  return cfg;
}

std::unique_ptr<SimEngine> make_engine() {
  return std::make_unique<SimEngine>(
      PlatformSpec::from_machine(Machine::exynos5422()),
      std::make_unique<GtsScheduler>());
}

TEST(SimEngine, TimeAdvancesByTicks) {
  auto engine = make_engine();
  engine->run_for(10 * kUsPerMs);
  EXPECT_EQ(engine->now(), 10 * kUsPerMs);
}

TEST(SimEngine, AppMakesProgressAndEmitsHeartbeats) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config());
  engine->add_app(&app);
  engine->run_for(5 * kUsPerSec);
  EXPECT_GT(app.heartbeats().count(), 0);
  EXPECT_GT(app.iterations_completed(), 0);
}

TEST(SimEngine, HeartbeatRateMatchesAnalyticThroughput) {
  auto engine = make_engine();
  // 4 threads, each 0.5 work-units per iteration. GTS puts CPU-bound
  // threads on big cores (4.8 wu/s at 1.6 GHz): iteration ~ 104 ms.
  DataParallelApp app("test", simple_config(4, 2.0));
  engine->add_app(&app);
  engine->run_for(30 * kUsPerSec);
  const double rate = app.heartbeats().global_rate(engine->now());
  EXPECT_NEAR(rate, 4.8 / 0.5, 0.8);
}

TEST(SimEngine, AffinityRestrictsExecution) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config(4, 2.0));
  const AppId id = engine->add_app(&app);
  engine->set_app_affinity(id, CpuMask::range(0, 4));  // Little cores only.
  engine->run_for(30 * kUsPerSec);
  for (int i = 0; i < 4; ++i) {
    const CoreId core = engine->thread_core(id, i);
    EXPECT_GE(core, 0);
    EXPECT_LT(core, 4);
  }
  // Little @1.3GHz: 2.6 wu/s per thread -> ~5.2 hb/s.
  const double rate = app.heartbeats().global_rate(engine->now());
  EXPECT_NEAR(rate, 2.6 / 0.5, 0.8);
}

TEST(SimEngine, BusyFractionsAreSane) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config(8, 4.0));
  engine->add_app(&app);
  engine->run_for(10 * kUsPerSec);
  double total_busy = 0.0;
  for (CoreId c = 0; c < engine->machine().num_cores(); ++c) {
    const double b = engine->core_busy_fraction(c);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    total_busy += b;
  }
  EXPECT_GT(total_busy, 1.0);  // 8 CPU-bound threads keep cores busy.
}

TEST(SimEngine, FrequencyChangeSlowsApp) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config(4, 2.0));
  const AppId id = engine->add_app(&app);
  engine->set_app_affinity(id, CpuMask::range(4, 4));
  Machine& m = engine->machine();
  m.set_freq_ghz(m.fastest_cluster(), 0.8);
  engine->run_for(30 * kUsPerSec);
  const double rate = app.heartbeats().global_rate(engine->now());
  // big @0.8: 2.4 wu/s per thread -> ~4.8 hb/s.
  EXPECT_NEAR(rate, 2.4 / 0.5, 0.8);
}

class FixedCostManager : public ManagerHook {
 public:
  explicit FixedCostManager(TimeUs cost) : cost_(cost) {}
  TimeUs on_tick(TimeUs) override { return cost_; }

 private:
  TimeUs cost_;
};

TEST(SimEngine, ManagerOverheadIsChargedAndReported) {
  auto engine = make_engine();
  FixedCostManager manager(100);  // 100 us per 1 ms tick = 10% of one CPU.
  engine->set_manager(&manager);
  engine->run_for(10 * kUsPerSec);
  EXPECT_NEAR(engine->manager_cpu_utilization_pct(), 10.0, 0.5);
  // Charged to the manager core (cpu0).
  EXPECT_NEAR(engine->core_busy_fraction(0), 0.10, 0.02);
}

TEST(SimEngine, ManagerOverheadConsumesAppCapacityOnManagerCore) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config(1, 1.0));
  const AppId id = engine->add_app(&app);
  engine->set_thread_affinity(id, 0, CpuMask::single(0));
  FixedCostManager manager(500);  // Half of cpu0.
  engine->set_manager(&manager);
  engine->run_for(20 * kUsPerSec);
  const double rate = app.heartbeats().global_rate(engine->now());
  // Thread alone would run at 2.6 wu/s (1 wu/iter); with half the core, ~1.3.
  EXPECT_NEAR(rate, 1.3, 0.3);
}

TEST(SimEngine, OwnedManagerLifetimeAndClear) {
  auto engine = make_engine();
  // Owned install: the engine keeps the manager alive and ticking.
  engine->set_manager(std::make_unique<FixedCostManager>(100));
  ASSERT_NE(engine->manager(), nullptr);
  engine->run_for(5 * kUsPerSec);
  EXPECT_GT(engine->manager_overhead_us(), 0);

  // Replacing an owned manager with a non-owning one destroys the old one.
  FixedCostManager external(50);
  engine->set_manager(&external);
  EXPECT_EQ(engine->manager(), &external);

  // Re-installing the same raw pointer is a no-op for ownership.
  engine->set_manager(&external);
  EXPECT_EQ(engine->manager(), &external);

  // clear_manager detaches; overhead accounting is kept.
  const TimeUs charged = engine->manager_overhead_us();
  engine->clear_manager();
  EXPECT_EQ(engine->manager(), nullptr);
  engine->run_for(5 * kUsPerSec);
  EXPECT_EQ(engine->manager_overhead_us(), charged);
}

TEST(SimEngine, PowerAccumulates) {
  auto engine = make_engine();
  DataParallelApp app("test", simple_config());
  engine->add_app(&app);
  engine->run_for(5 * kUsPerSec);
  EXPECT_GT(engine->sensor().total_energy_j(), 0.0);
  EXPECT_GT(engine->sensor().average_power_w(engine->now()),
            engine->power_model().base_watts());
}

TEST(SimEngine, RequiresScheduler) {
  EXPECT_THROW(SimEngine(PlatformSpec::from_machine(Machine::exynos5422()),
                         nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace hars
