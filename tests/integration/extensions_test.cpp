// Integration tests for the §3.1.4 / §5.1.2 extensions wired into the
// runtime manager: Kalman prediction, tabu search, hierarchical
// scheduling and online ratio learning.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/data_parallel_app.hpp"
#include "apps/parsec.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "exp/experiment.hpp"
#include "hmp/sim_engine.hpp"
#include "oracle/fuzz_harness.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

ExperimentBuilder quick(ParsecBenchmark bench) {
  ExperimentBuilder builder;
  builder.app(bench).variant("HARS-E").duration(80 * kUsPerSec);
  return builder;
}

TEST(Extensions, KalmanPredictorKeepsTargetOnNoisyWorkload) {
  const ExperimentResult r = quick(ParsecBenchmark::kBodytrack)
                                 .predictor(PredictorKind::kKalman)
                                 .build()
                                 .run();
  EXPECT_GT(r.app().metrics.norm_perf, 0.85);
  EXPECT_GT(r.app().metrics.perf_per_watt, 0.0);
}

TEST(Extensions, KalmanComparableToLastValueOnStableWorkload) {
  const ExperimentResult last = quick(ParsecBenchmark::kSwaptions)
                                    .predictor(PredictorKind::kLastValue)
                                    .build()
                                    .run();
  const ExperimentResult kalman = quick(ParsecBenchmark::kSwaptions)
                                      .predictor(PredictorKind::kKalman)
                                      .build()
                                      .run();
  EXPECT_GT(kalman.app().metrics.perf_per_watt,
            0.75 * last.app().metrics.perf_per_watt);
}

TEST(Extensions, TabuPolicyConvergesToTarget) {
  const ExperimentResult r = quick(ParsecBenchmark::kSwaptions)
                                 .policy(SearchPolicy::kTabu)
                                 .build()
                                 .run();
  EXPECT_GT(r.app().metrics.norm_perf, 0.85);
  ExperimentBuilder baseline;
  baseline.app(ParsecBenchmark::kSwaptions)
      .variant("Baseline")
      .duration(80 * kUsPerSec);
  const ExperimentResult base = baseline.build().run();
  EXPECT_GT(r.app().metrics.perf_per_watt,
            1.5 * base.app().metrics.perf_per_watt);
}

TEST(Extensions, TabuPolicyRunsEndToEnd) {
  const ExperimentResult r = quick(ParsecBenchmark::kSwaptions)
                                 .policy(SearchPolicy::kTabu)
                                 .duration(40 * kUsPerSec)
                                 .build()
                                 .run();
  EXPECT_GT(r.app().metrics.norm_perf, 0.8);
}

TEST(Extensions, HierarchicalSchedulerWorksOnPipeline) {
  const ExperimentResult r = quick(ParsecBenchmark::kFerret)
                                 .scheduler(ThreadSchedulerKind::kHierarchical)
                                 .build()
                                 .run();
  EXPECT_GT(r.app().metrics.norm_perf, 0.8);
  // At least as good as the chunk mapping the paper criticizes.
  const ExperimentResult chunk = quick(ParsecBenchmark::kFerret)
                                     .scheduler(ThreadSchedulerKind::kChunk)
                                     .build()
                                     .run();
  EXPECT_GE(r.app().metrics.perf_per_watt,
            0.9 * chunk.app().metrics.perf_per_watt);
}

TEST(Extensions, RatioLearningImprovesBlackscholes) {
  const ExperimentResult fixed = quick(ParsecBenchmark::kBlackscholes)
                                     .duration(100 * kUsPerSec)
                                     .build()
                                     .run();
  const ExperimentResult learned = quick(ParsecBenchmark::kBlackscholes)
                                       .duration(100 * kUsPerSec)
                                       .learn_ratio()
                                       .build()
                                       .run();
  // The learner must never be materially worse, and BL's wrong prior gives
  // it room to help.
  EXPECT_GE(learned.app().metrics.perf_per_watt,
            0.9 * fixed.app().metrics.perf_per_watt);
  EXPECT_GT(learned.app().metrics.norm_perf, 0.85);
}

TEST(Extensions, RatioLearnerConvergesInsideManager) {
  // A manager embedded directly on an engine through the Backend ctor,
  // installed in the engine's non-owning manager slot.
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  auto app = make_parsec_app(ParsecBenchmark::kBlackscholes);  // True r = 1.0.
  const AppId id = engine.add_app(app.get());
  RuntimeManagerConfig config = config_for_variant(HarsVariant::kHarsE);
  config.learn_ratio = true;
  SimBackend backend(engine);
  RuntimeManager manager(backend, id, PerfTarget::around(2.0),
                         profile_power(engine.machine(), engine.power_model()),
                         config);
  backend.attach_manager(&manager);
  engine.run_for(120 * kUsPerSec);
  // Started from the 1.5 prior; should have moved toward 1.0.
  EXPECT_LT(manager.current_r0(), 1.4);
}

TEST(Extensions, RatioLearningMatchesTheReferenceSearch) {
  // The manager keeps its search memo across adaptations and reopens it
  // only when the learner moves r0; a memo that outlived an r0 change
  // would score candidates with the old ratio. The audited run
  // cross-checks every search against the reference search, which
  // recomputes every estimate, and throws AuditError on a mismatch; the
  // audits only observe, so its records equal the unaudited twin's.
  const auto run = [](bool audit) {
    return result_fingerprint(ExperimentBuilder()
                                  .platform("exynos5422")
                                  .app(ParsecBenchmark::kFluidanimate)
                                  .variant("HARS-E")
                                  .learn_ratio()
                                  .audit(audit)
                                  .duration(50 * kUsPerSec)
                                  .build()
                                  .run());
  };
  std::string audited;
  ASSERT_NO_THROW(audited = run(true));
  EXPECT_EQ(audited, run(false));
}

TEST(Extensions, EnergyMetricsPopulated) {
  const ExperimentResult r = quick(ParsecBenchmark::kSwaptions).build().run();
  EXPECT_GT(r.app().metrics.energy_j, 0.0);
  EXPECT_GT(r.app().metrics.energy_per_beat_j, 0.0);
  // Energy per beat consistency: energy / (rate * span).
  EXPECT_NEAR(r.app().metrics.energy_per_beat_j,
              r.app().metrics.avg_power_w / r.app().metrics.avg_rate_hps,
              0.2 * r.app().metrics.energy_per_beat_j);
}

}  // namespace
}  // namespace hars
