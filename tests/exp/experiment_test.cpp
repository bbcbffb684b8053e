// Behaviour of the unified Experiment pipeline: custom apps, explicit
// targets, protocols, sampling, and the post-run query surface.
#include <gtest/gtest.h>

#include "apps/data_parallel_app.hpp"
#include "exp/experiment.hpp"

namespace hars {
namespace {

AppFactory stable_app() {
  return [](int threads, std::uint64_t seed) {
    DataParallelConfig cfg;
    cfg.threads = threads;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, 4.0, 0.02, 0.0, 1};
    cfg.seed = seed;
    return std::make_unique<DataParallelApp>("stable", cfg);
  };
}

TEST(Experiment, CustomAppWithExplicitTargetUnderHars) {
  const ExperimentResult r = ExperimentBuilder()
                                 .app("stable", stable_app())
                                 .target(PerfTarget::around(2.0))
                                 .variant("HARS-EI")
                                 .duration(40 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_EQ(r.apps.front().label, "stable");
  EXPECT_GT(r.apps.front().metrics.norm_perf, 0.8);
  EXPECT_TRUE(r.final_state.has_value());
  EXPECT_FALSE(r.apps.front().trace.empty());
  EXPECT_GT(r.adaptations, 0);
}

TEST(Experiment, StaticOptimalReportsChosenState) {
  const ExperimentResult r = ExperimentBuilder()
                                 .app(ParsecBenchmark::kSwaptions)
                                 .variant("SO")
                                 .duration(20 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_TRUE(r.static_state.has_value());
  EXPECT_GT(r.static_state->big_cores + r.static_state->little_cores, 0);
  EXPECT_TRUE(r.apps.front().trace.empty());
}

TEST(Experiment, BaselineHasNoManagerArtifacts) {
  const ExperimentResult r = ExperimentBuilder()
                                 .app(ParsecBenchmark::kSwaptions)
                                 .variant("Baseline")
                                 .duration(20 * kUsPerSec)
                                 .build()
                                 .run();
  EXPECT_FALSE(r.static_state.has_value());
  EXPECT_FALSE(r.final_state.has_value());
  EXPECT_EQ(r.adaptations, 0);
  EXPECT_DOUBLE_EQ(r.apps.front().metrics.manager_cpu_pct, 0.0);
}

TEST(Experiment, SamplerObservesTheRun) {
  int samples = 0;
  TimeUs last_now = 0;
  const ExperimentResult r =
      ExperimentBuilder()
          .app("stable", stable_app())
          .target(PerfTarget::around(2.0))
          .variant("HARS-E")
          .protocol(RunProtocol::kColdStart)
          .duration(20 * kUsPerSec)
          .sample_every(5 * kUsPerSec,
                        [&](const RunView& view) {
                          ++samples;
                          EXPECT_GT(view.now, last_now);
                          last_now = view.now;
                          EXPECT_EQ(view.apps.size(), 1u);
                        })
          .build()
          .run();
  EXPECT_EQ(samples, 4);
  EXPECT_GT(r.apps.front().metrics.heartbeats, 0);
}

TEST(Experiment, MultiAppExplicitTargetsSkipCalibrationProbe) {
  const ExperimentResult r = ExperimentBuilder()
                                 .app("a", stable_app())
                                 .target(PerfTarget::around(2.0))
                                 .app("b", stable_app())
                                 .target(PerfTarget::around(1.5))
                                 .variant("MP-HARS-E")
                                 .duration(40 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_DOUBLE_EQ(r.apps[0].target.avg(), 2.0);
  EXPECT_DOUBLE_EQ(r.apps[1].target.avg(), 1.5);
  EXPECT_FALSE(r.apps[0].trace.empty());
  EXPECT_FALSE(r.apps[1].trace.empty());
  EXPECT_GT(r.avg_power_w, 0.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto run_once = [] {
    return ExperimentBuilder()
        .app(ParsecBenchmark::kSwaptions)
        .variant("HARS-E")
        .duration(20 * kUsPerSec)
        .build()
        .run();
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_DOUBLE_EQ(a.app().metrics.norm_perf, b.app().metrics.norm_perf);
  EXPECT_DOUBLE_EQ(a.app().metrics.avg_power_w, b.app().metrics.avg_power_w);
  EXPECT_EQ(a.app().metrics.heartbeats, b.app().metrics.heartbeats);
}

TEST(Experiment, CustomPlatformRuns) {
  MachineSpec spec;
  spec.name = "tiny-1P2E";
  ClusterSpec little;
  little.type = CoreType::kLittle;
  little.core_count = 2;
  little.ipc = 2.0;
  little.freqs_ghz = {0.8, 1.0, 1.2};
  ClusterSpec big;
  big.type = CoreType::kBig;
  big.core_count = 1;
  big.ipc = 4.0;
  big.freqs_ghz = {1.0, 1.5, 2.0};
  spec.clusters = {little, big};

  const ExperimentResult r =
      ExperimentBuilder()
          .platform(PlatformSpec::from_machine(Machine(spec)))
          .app("stable", stable_app())
          .target(PerfTarget::around(1.0))
          .variant("HARS-E")
          .assumed_ratio(2.0)
          .threads(3)
          .duration(30 * kUsPerSec)
          .build()
          .run();
  EXPECT_GT(r.apps.front().metrics.heartbeats, 0);
}

}  // namespace
}  // namespace hars
