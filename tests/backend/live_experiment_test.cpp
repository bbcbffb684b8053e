// The live pipeline end to end: ExperimentBuilder::backend("mock_linux")
// runs a real variant against the fixture platform — workload spawn,
// probe-slice target derivation, manager attach, metric collection —
// entirely in-process and deterministic.
#include <gtest/gtest.h>

#include "exp/experiment.hpp"

namespace hars {
namespace {

TEST(LiveExperiment, MockLinuxRunProducesMetrics) {
  const ExperimentResult result = ExperimentBuilder()
                                      .backend("mock_linux")
                                      .app(ParsecBenchmark::kSwaptions)
                                      .variant("HARS-E")
                                      .duration_sec(20)
                                      .threads(4)
                                      .build()
                                      .run();
  ASSERT_EQ(result.apps.size(), 1u);
  const AppRunResult& app = result.app();
  EXPECT_GT(app.metrics.heartbeats, 0);
  EXPECT_GT(app.metrics.avg_rate_hps, 0.0);
  EXPECT_GT(app.target.max, 0.0);  // Derived from the probe slice.
  EXPECT_GT(result.avg_power_w, 0.0);
  ASSERT_TRUE(result.final_state.has_value());
}

TEST(LiveExperiment, ExplicitTargetSkipsDerivation) {
  PerfTarget target;
  target.min = 5.0;
  target.max = 8.0;
  const ExperimentResult result = ExperimentBuilder()
                                      .backend("mock_linux")
                                      .app(ParsecBenchmark::kSwaptions)
                                      .target(target)
                                      .variant("Baseline")
                                      .duration_sec(5)
                                      .threads(4)
                                      .build()
                                      .run();
  EXPECT_DOUBLE_EQ(result.app().target.min, 5.0);
  EXPECT_DOUBLE_EQ(result.app().target.max, 8.0);
}

TEST(LiveExperiment, RunIsDeterministic) {
  const auto run_once = [] {
    return ExperimentBuilder()
        .backend("mock_linux")
        .app(ParsecBenchmark::kSwaptions)
        .variant("HARS-E")
        .duration_sec(10)
        .threads(4)
        .build()
        .run();
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_EQ(a.app().metrics.heartbeats, b.app().metrics.heartbeats);
  EXPECT_DOUBLE_EQ(a.app().metrics.avg_rate_hps, b.app().metrics.avg_rate_hps);
  EXPECT_EQ(a.adaptations, b.adaptations);
}

TEST(LiveExperiment, BuilderRejectsUnknownBackendUpFront) {
  try {
    ExperimentBuilder().backend("qemu");
    FAIL() << "expected ExperimentConfigError";
  } catch (const ExperimentConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("qemu"), std::string::npos);
    EXPECT_NE(what.find("mock_linux"), std::string::npos);  // Lists known.
  }
}

TEST(LiveExperiment, BuildRejectsSimOnlyFeaturesOnLiveBackends) {
  EXPECT_THROW(ExperimentBuilder()
                   .backend("mock_linux")
                   .scenario("steady")
                   .variant("HARS-E")
                   .build(),
               ExperimentConfigError);
  EXPECT_THROW(ExperimentBuilder()
                   .backend("mock_linux")
                   .app(ParsecBenchmark::kSwaptions)
                   .sample_every(kUsPerSec, [](const RunView&) {})
                   .build(),
               ExperimentConfigError);
}

TEST(LiveExperiment, SimBackendNameKeepsTheSimPath) {
  const ExperimentResult result = ExperimentBuilder()
                                      .backend("sim")
                                      .app(ParsecBenchmark::kSwaptions)
                                      .variant("HARS-E")
                                      .duration_sec(10)
                                      .build()
                                      .run();
  EXPECT_GT(result.app().metrics.heartbeats, 0);
}

}  // namespace
}  // namespace hars
