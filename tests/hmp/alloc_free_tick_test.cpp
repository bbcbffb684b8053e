// Engine-level enforcement of the allocation-free tick contract (PR 5's
// optimized tick path, hardened here): SimEngine::step() runs under an
// AllocGuard, so any allocation introduced into the hot path — outside
// the declared AllowScope allocators — fails these tests via the
// recording failure handler.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "oracle/reference_gts.hpp"
#include "oracle/reference_run.hpp"
#include "sched/gts.hpp"
#include "util/alloc_guard.hpp"

namespace hars {
namespace {

struct RecordedFailure {
  std::string what;
  std::uint64_t violations = 0;
};

std::vector<RecordedFailure>& recorded() {
  static std::vector<RecordedFailure> failures;
  return failures;
}

void recording_handler(const char* what, std::uint64_t violations) {
  recorded().push_back(RecordedFailure{what, violations});
}

class HandlerScope {
 public:
  HandlerScope() : previous_(allocg::set_failure_handler(recording_handler)) {
    recorded().clear();
  }
  ~HandlerScope() { allocg::set_failure_handler(previous_); }

 private:
  allocg::FailureHandler previous_;
};

DataParallelConfig app_config(int threads) {
  DataParallelConfig cfg;
  cfg.threads = threads;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kStable, 2.0, 0.0, 0.0, 1};
  return cfg;
}

TEST(AllocFreeTick, BareEngineStepsWithoutViolations) {
  if (!allocg::counting_compiled_in()) {
    GTEST_SKIP() << "built without HARS_ALLOC_GUARD";
  }
  HandlerScope handler;
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelApp app("steady", app_config(8));
  engine.add_app(&app);
  // Includes the cold first ticks: scratch growth is AllowScope'd, so
  // even warm-up must not report.
  engine.run_for(500 * kUsPerMs);
  EXPECT_TRUE(recorded().empty())
      << recorded().size() << " tick(s) reported hot-path allocations, "
      << "first in region \"" << recorded().front().what << "\"";
  EXPECT_GT(app.heartbeats().count(), 0);
}

TEST(AllocFreeTick, ManagedEngineSearchSweepsStayAllocationFree) {
  if (!allocg::counting_compiled_in()) {
    GTEST_SKIP() << "built without HARS_ALLOC_GUARD";
  }
  HandlerScope handler;
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelApp app("managed", app_config(8));
  const AppId id = engine.add_app(&app);
  // HARS-E runs the full m = n = 4, d = 7 exhaustive sweep (with the
  // memoized SearchScratch), which itself re-tightens via AllocGuard.
  SimBackend backend(engine);
  RuntimeManager manager(backend, id, PerfTarget{4.0, 6.0},
                         profile_power(engine.machine(), engine.power_model()),
                         config_for_variant(HarsVariant::kHarsE));
  backend.attach_manager(&manager);
  engine.run_for(3 * kUsPerSec);
  EXPECT_TRUE(recorded().empty())
      << recorded().size() << " tick(s) reported hot-path allocations, "
      << "first in region \"" << recorded().front().what << "\"";
  EXPECT_GT(manager.adaptations(), 0);
}

TEST(AllocFreeTick, TabuTrajectoryStaysAllocationFree) {
  if (!allocg::counting_compiled_in()) {
    GTEST_SKIP() << "built without HARS_ALLOC_GUARD";
  }
  HandlerScope handler;
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelApp app("tabu", app_config(8));
  const AppId id = engine.add_app(&app);
  RuntimeManagerConfig cfg = config_for_variant(HarsVariant::kHarsE);
  cfg.policy = SearchPolicy::kTabu;
  SimBackend backend(engine);
  RuntimeManager manager(backend, id, PerfTarget{4.0, 6.0},
                         profile_power(engine.machine(), engine.power_model()),
                         cfg);
  backend.attach_manager(&manager);
  engine.run_for(3 * kUsPerSec);
  EXPECT_TRUE(recorded().empty())
      << recorded().size() << " tick(s) reported hot-path allocations, "
      << "first in region \"" << recorded().front().what << "\"";
}

TEST(AllocFreeTick, ReferenceTickPathIsExemptFromTheContract) {
  if (!allocg::counting_compiled_in()) {
    GTEST_SKIP() << "built without HARS_ALLOC_GUARD";
  }
  // The retained reference path allocates per tick by design; it must
  // not be guarded (it exists as the readable baseline, not a hot path).
  HandlerScope handler;
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<ReferenceGtsScheduler>());
  DataParallelApp app("reference", app_config(8));
  engine.add_app(&app);
  run_reference_until(engine, 200 * kUsPerMs);
  EXPECT_TRUE(recorded().empty());
}

}  // namespace
}  // namespace hars
