#include "core/runtime_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "core/ratio_learner.hpp"
#include "exp/static_optimal.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/power_sensor.hpp"
#include "mphars/cons_i.hpp"
#include "mphars/mphars_manager.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

struct Fixture {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  SimBackend backend{engine};
  std::unique_ptr<DataParallelApp> app;
  AppId id = -1;

  explicit Fixture(double work_per_iter = 4.0, int threads = 8) {
    DataParallelConfig cfg;
    cfg.threads = threads;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, work_per_iter, 0.0, 0.0, 1};
    app = std::make_unique<DataParallelApp>("t", cfg);
    id = engine.add_app(app.get());
  }

  /// Profiles the platform and installs a RuntimeManager for the app.
  std::unique_ptr<RuntimeManager> attach(PerfTarget target,
                                         RuntimeManagerConfig config) {
    auto manager = std::make_unique<RuntimeManager>(
        backend, id, target,
        profile_power(engine.machine(), engine.power_model()), config);
    backend.attach_manager(manager.get());
    return manager;
  }
  std::unique_ptr<RuntimeManager> attach(PerfTarget target,
                                         HarsVariant variant) {
    return attach(target, config_for_variant(variant));
  }
};

TEST(RuntimeManager, StartsAtMaxState) {
  Fixture f;
  auto manager = f.attach(PerfTarget::around(2.0), HarsVariant::kHarsE);
  EXPECT_EQ(manager->current_state(),
            StateSpace::from_machine(f.engine.machine()).max_state());
}

TEST(RuntimeManager, InstallsTargetOnMonitor) {
  Fixture f;
  auto manager = f.attach(PerfTarget::around(2.0), HarsVariant::kHarsE);
  EXPECT_NEAR(f.app->heartbeats().target().avg(), 2.0, 1e-9);
}

TEST(RuntimeManager, AdaptsDownWhenOverperforming) {
  Fixture f;
  // Max state gives ~9+ hb/s for work=4; target 2 hb/s -> must shed power.
  auto manager = f.attach(PerfTarget::around(2.0), HarsVariant::kHarsE);
  f.engine.run_for(60 * kUsPerSec);
  EXPECT_GT(manager->adaptations(), 0);
  const SystemState s = manager->current_state();
  EXPECT_LT(manhattan_distance(s, StateSpace::from_machine(f.engine.machine()).max_state()),
            100);  // Moved somewhere.
  const double rate = f.app->heartbeats().rate();
  EXPECT_NEAR(rate, 2.0, 0.5);
}

TEST(RuntimeManager, HarsIAdaptsSlowerThanHarsE) {
  Fixture fi;
  auto mi = fi.attach(PerfTarget::around(2.0), HarsVariant::kHarsI);
  Fixture fe;
  auto me = fe.attach(PerfTarget::around(2.0), HarsVariant::kHarsE);
  fi.engine.run_for(20 * kUsPerSec);
  fe.engine.run_for(20 * kUsPerSec);
  // HARS-I moves one knob per adaptation: after the same wall time its
  // state is no further from max than HARS-E's.
  const SystemState max_state =
      StateSpace::from_machine(fi.engine.machine()).max_state();
  EXPECT_LE(manhattan_distance(mi->current_state(), max_state),
            manhattan_distance(me->current_state(), max_state) + 1);
}

TEST(RuntimeManager, NoAdaptationInsideWindow) {
  Fixture f;
  RuntimeManagerConfig config = config_for_variant(HarsVariant::kHarsE);
  auto manager = f.attach(PerfTarget::around(2.0), config);
  f.engine.run_for(90 * kUsPerSec);
  const std::int64_t settled = manager->adaptations();
  // Once in the window, further run should add few or no adaptations.
  f.engine.run_for(20 * kUsPerSec);
  EXPECT_LE(manager->adaptations() - settled, 3);
}

TEST(RuntimeManager, TraceRecordsHeartbeats) {
  Fixture f;
  auto manager = f.attach(PerfTarget::around(2.0), HarsVariant::kHarsEI);
  f.engine.run_for(20 * kUsPerSec);
  ASSERT_FALSE(manager->trace().empty());
  const TracePoint& p = manager->trace().back();
  EXPECT_GT(p.hb_index, 0);
  EXPECT_GT(p.hps, 0.0);
  EXPECT_GE(p.big_cores, 0);
  EXPECT_LE(p.big_cores, 4);
  EXPECT_GT(p.big_freq_ghz, 0.0);
}

TEST(RuntimeManager, OverheadChargedToEngine) {
  Fixture f;
  auto manager = f.attach(PerfTarget::around(2.0), HarsVariant::kHarsE);
  f.engine.run_for(30 * kUsPerSec);
  EXPECT_GT(f.engine.manager_overhead_us(), 0);
  EXPECT_LT(f.engine.manager_cpu_utilization_pct(), 10.0);
}

TEST(RuntimeManager, ApplyStateSetsFrequenciesAndAffinity) {
  Fixture f;
  RuntimeManagerConfig config = config_for_variant(HarsVariant::kHarsE);
  const PowerCoeffTable coeffs =
      profile_power(f.engine.machine(), f.engine.power_model());
  RuntimeManager manager(f.backend, f.id, PerfTarget::around(2.0), coeffs,
                         config);
  manager.apply_state(SystemState{2, 3, 1, 2});
  const Machine& m = f.engine.machine();
  EXPECT_EQ(m.freq_level(m.fastest_cluster()), 1);
  EXPECT_EQ(m.freq_level(m.slowest_cluster()), 2);
  // Affinities only cover the allocated cores (big 4-5, little 0-2).
  const CpuMask allowed = CpuMask::range(4, 2) | CpuMask::range(0, 3);
  for (int i = 0; i < f.app->thread_count(); ++i) {
    EXPECT_TRUE(allowed.contains(f.engine.thread_affinity(f.id, i))) << i;
  }
}

TEST(ConfigForVariant, MatchesPaper) {
  const RuntimeManagerConfig i = config_for_variant(HarsVariant::kHarsI);
  EXPECT_EQ(i.policy, SearchPolicy::kIncremental);
  EXPECT_EQ(i.scheduler, ThreadSchedulerKind::kChunk);
  const RuntimeManagerConfig e = config_for_variant(HarsVariant::kHarsE);
  EXPECT_EQ(e.policy, SearchPolicy::kExhaustive);
  // HARS-E's search (§3.1.3): m = n = 4, d = 7, for every struct that
  // carries it.
  EXPECT_EQ(kExhaustiveWindow, 4);
  EXPECT_EQ(kExhaustiveDistance, 7);
  EXPECT_EQ(e.exhaustive_d, kExhaustiveDistance);
  EXPECT_EQ(MpHarsConfig{}.exhaustive_d, kExhaustiveDistance);
  const SearchParams search;
  EXPECT_EQ(search.m, kExhaustiveWindow);
  EXPECT_EQ(search.n, kExhaustiveWindow);
  EXPECT_EQ(search.d, kExhaustiveDistance);
  EXPECT_EQ(params_for_policy(SearchPolicy::kExhaustive, true).d,
            kExhaustiveDistance);
  // An adaptation check every 5 heartbeats, for every manager.
  EXPECT_EQ(kAdaptPeriodBeats, 5);
  EXPECT_EQ(e.adapt_period, kAdaptPeriodBeats);
  EXPECT_EQ(MpHarsAppConfig{}.adapt_period, kAdaptPeriodBeats);
  EXPECT_EQ(ConsIAppConfig{}.adapt_period, kAdaptPeriodBeats);
  EXPECT_EQ(AppNode{}.adapt_period, kAdaptPeriodBeats);
  // The assumed big:little ratio r0 = 3/2 at f0 = 1 GHz (§3.1.1); the
  // Exynos preset derives the same value from the ipc ratio.
  EXPECT_EQ(kAssumedR0, 1.5);
  EXPECT_EQ(kF0Ghz, 1.0);
  EXPECT_EQ(e.r0, kAssumedR0);
  EXPECT_EQ(MpHarsConfig{}.r0, kAssumedR0);
  EXPECT_EQ(ConsIConfig{}.r0, kAssumedR0);
  const PlatformSpec exynos = PlatformRegistry::instance().get("exynos5422");
  EXPECT_EQ(exynos.assumed_ratio(), kAssumedR0);
  // The simulated board: a 0.7 W floor and 1% sensor noise, which the
  // power profiler's readings share, on a 4-utilization x 3-reading grid.
  EXPECT_EQ(PlatformSpec::kDefaultBaseWatts, 0.7);
  EXPECT_EQ(exynos.base_watts, PlatformSpec::kDefaultBaseWatts);
  EXPECT_EQ(PowerSensor::kDefaultNoiseStddev, 0.01);
  EXPECT_EQ(kProfileUtilizationSteps, 4);
  EXPECT_EQ(kProfileRepeats, 3);
  EXPECT_EQ(kProfileSeed, 2024u);
  // The OS scheduler's migration thresholds.
  EXPECT_EQ(kGtsUpThreshold, 0.80);
  EXPECT_EQ(kGtsDownThreshold, 0.30);
  // The online ratio learner's window and grid (§5.1.2 extension).
  EXPECT_EQ(RatioLearner::kHistory, 32u);
  EXPECT_EQ(RatioLearner::kPerMixCap, 4u);
  EXPECT_EQ(RatioLearner::kRMin, 0.8);
  EXPECT_EQ(RatioLearner::kRMax, 3.0);
  EXPECT_EQ(RatioLearner::kRStep, 0.05);
  EXPECT_EQ(RatioLearner::kMinSamples, 6u);
  // The static-optimal oracle measures its 24 best-ranked states, 15 s
  // each.
  EXPECT_EQ(kStaticOptimalShortlist, 24);
  EXPECT_EQ(kStaticOptimalProbeUs, 15 * kUsPerSec);
  const RuntimeManagerConfig ei = config_for_variant(HarsVariant::kHarsEI);
  EXPECT_EQ(ei.scheduler, ThreadSchedulerKind::kInterleaved);
  // The fixed parameters every variant shares: the daemon polls the
  // heartbeat channel every 5 ms, waits one monitor window (10 beats)
  // after a move, and a frequency decrease freezes the cluster for 5.
  EXPECT_EQ(PollingManager::kPollPeriodUs, 5 * kUsPerMs);
  EXPECT_EQ(kSettleBeats, 10);
  EXPECT_EQ(kFreezeHeartbeats, 5);
  // The overhead model, calibrated so Figure 5.3(b) stays under 6% at
  // d = 9; perfbench decodes it under RuntimeManagerConfig's names.
  EXPECT_EQ(PollingManager::kPollCostUs, 60);
  EXPECT_EQ(kAdaptFixedCostUs, 500);
  EXPECT_EQ(kCostPerCandidateUs, 400);
  EXPECT_EQ(ConsIManager::kStepCostUs, 200);
  EXPECT_EQ(RuntimeManagerConfig::poll_cost_us, PollingManager::kPollCostUs);
  EXPECT_EQ(RuntimeManagerConfig::adapt_fixed_cost_us, kAdaptFixedCostUs);
  EXPECT_EQ(RuntimeManagerConfig::cost_per_candidate_us, kCostPerCandidateUs);
  // CONS-I's perfScore ladder (§4.1.1): scores in cores at kF0Ghz, one
  // kept state per half-core step.
  EXPECT_EQ(ConsIManager::kMinScoreStep, 0.5);
}

// Regression: a non-positive target average zeroed every normalized-perf
// score (search tied at pp = 0); managers now reject such targets at
// construction / retarget time.
TEST(RuntimeManager, RejectsNonPositiveTargetWindow) {
  for (const PerfTarget target :
       {PerfTarget{-2.0, 1.0}, PerfTarget{0.0, 0.0}, PerfTarget{-3.0, -1.0}}) {
    Fixture f;
    EXPECT_THROW(
        f.attach(target, HarsVariant::kHarsE),
        std::invalid_argument)
        << "min=" << target.min << " max=" << target.max;
  }
}

}  // namespace
}  // namespace hars
