// SimBackend bit-identity: every Backend call is a 1:1 forward to the
// engine, for actuation and observation alike, so managers driven
// through the HAL run exactly the simulation the engine defines.
#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

struct SimFixture {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  std::unique_ptr<DataParallelApp> app;
  AppId id = -1;

  SimFixture() {
    DataParallelConfig cfg;
    cfg.threads = 8;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, 4.0, 0.0, 0.0, 1};
    app = std::make_unique<DataParallelApp>("t", cfg);
    id = engine.add_app(app.get());
  }
};

TEST(SimBackendBitIdentity, ActuationForwardsOneToOne) {
  SimFixture f;
  SimBackend backend(f.engine);
  const Machine& m = f.engine.machine();

  backend.set_dvfs_level(m.fastest_cluster(), 2);
  EXPECT_EQ(m.freq_level(m.fastest_cluster()), 2);

  backend.set_online_mask(m.slowest_mask());
  EXPECT_EQ(m.online_mask(), m.slowest_mask());
  backend.set_online_mask(m.all_mask());

  backend.place(f.id, 0, m.fastest_mask());
  f.engine.run_for(kUsPerMs);
  const CoreId core = backend.thread_core(f.id, 0);
  ASSERT_GE(core, 0);
  EXPECT_TRUE(m.fastest_mask().test(core));
}

TEST(SimBackendBitIdentity, ObservationMatchesTheEngine) {
  SimFixture f;
  SimBackend backend(f.engine);
  f.engine.run_for(kUsPerSec);

  EXPECT_EQ(backend.now(), f.engine.now());
  EXPECT_EQ(backend.num_apps(), f.engine.num_apps());
  EXPECT_TRUE(backend.app_alive(f.id));
  EXPECT_EQ(backend.thread_count(f.id), 8);
  EXPECT_EQ(backend.elapsed_work_us(f.id, 0),
            f.engine.thread_cpu_time_us(f.id, 0));
  for (CoreId c = 0; c < f.engine.machine().num_cores(); ++c) {
    EXPECT_DOUBLE_EQ(backend.core_busy_fraction(c),
                     f.engine.core_busy_fraction(c));
  }
  EXPECT_DOUBLE_EQ(backend.energy_j(), f.engine.sensor().total_energy_j());
}

}  // namespace
}  // namespace hars
