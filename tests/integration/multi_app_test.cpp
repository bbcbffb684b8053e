// End-to-end multi-application runs backing Figure 5.4's orderings.
#include <gtest/gtest.h>

#include <cmath>

#include "exp/experiment.hpp"

namespace hars {
namespace {

ExperimentResult quick_multi(const std::vector<ParsecBenchmark>& benches,
                             const char* variant) {
  return ExperimentBuilder()
      .apps(benches)
      .variant(variant)
      .duration(100 * kUsPerSec)
      .build()
      .run();
}

double gm_pp(const ExperimentResult& r) {
  return std::sqrt(r.apps[0].metrics.perf_per_watt *
                   r.apps[1].metrics.perf_per_watt);
}

TEST(MultiApp, CaseListMatchesPaper) {
  const auto cases = multiapp_cases();
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(cases[3][0], ParsecBenchmark::kBodytrack);      // Case 4 = BO+FL.
  EXPECT_EQ(cases[3][1], ParsecBenchmark::kFluidanimate);
  EXPECT_EQ(cases[5][0], ParsecBenchmark::kBodytrack);      // Case 6 = BO+BL.
  EXPECT_EQ(cases[5][1], ParsecBenchmark::kBlackscholes);
}

TEST(MultiApp, BaselineRunsBothAppsFlatOut) {
  const auto benches = multiapp_cases()[0];  // BO+SW.
  const ExperimentResult r = quick_multi(benches, "Baseline");
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_GT(r.avg_power_w, 4.0);
  for (const AppRunResult& app : r.apps) EXPECT_GT(app.metrics.heartbeats, 10);
}

TEST(MultiApp, MpHarsEBeatsBaselineOnGeomean) {
  const auto benches = multiapp_cases()[0];
  const ExperimentResult base = quick_multi(benches, "Baseline");
  const ExperimentResult mp = quick_multi(benches, "MP-HARS-E");
  EXPECT_GT(gm_pp(mp), 1.3 * gm_pp(base));
}

TEST(MultiApp, MpHarsESavesPowerVersusBaseline) {
  const auto benches = multiapp_cases()[3];  // BO+FL.
  const ExperimentResult base = quick_multi(benches, "Baseline");
  const ExperimentResult mp = quick_multi(benches, "MP-HARS-E");
  EXPECT_LT(mp.avg_power_w, base.avg_power_w);
}

TEST(MultiApp, ConsIBeatsBaselineWhenAsymmetric) {
  // Case 2 (BL+SW): blackscholes' silent input phase leaves swaptions
  // running solo, far above its target; CONS-I can decrease the shared
  // state and save power where the baseline cannot.
  const auto benches = multiapp_cases()[1];
  const ExperimentResult base = quick_multi(benches, "Baseline");
  const ExperimentResult cons = quick_multi(benches, "CONS-I");
  EXPECT_GT(gm_pp(cons), gm_pp(base));
}

TEST(MultiApp, ConsIDescendsWhenBothOverperform) {
  // Case 1 (BO+SW): both apps start at 2x their (concurrent-baseline-
  // derived) targets, so the conservative model may decrease the shared
  // state and save real power while keeping both close to target.
  const auto benches = multiapp_cases()[0];
  const ExperimentResult base = quick_multi(benches, "Baseline");
  const ExperimentResult cons = quick_multi(benches, "CONS-I");
  EXPECT_LT(cons.avg_power_w, 0.8 * base.avg_power_w);
  for (const AppRunResult& app : cons.apps) {
    EXPECT_GT(app.metrics.norm_perf, 0.8);
  }
}

TEST(MultiApp, TracesProducedForManagedVersions) {
  const auto benches = multiapp_cases()[3];
  for (const char* variant : {"CONS-I", "MP-HARS-I", "MP-HARS-E"}) {
    const ExperimentResult r = ExperimentBuilder()
                                   .apps(benches)
                                   .variant(variant)
                                   .duration(40 * kUsPerSec)
                                   .build()
                                   .run();
    ASSERT_EQ(r.apps.size(), 2u) << variant;
    EXPECT_FALSE(r.apps[0].trace.empty()) << variant;
    EXPECT_FALSE(r.apps[1].trace.empty()) << variant;
  }
}

TEST(MultiApp, TargetsDerivedFromConcurrentBaseline) {
  const auto benches = multiapp_cases()[0];
  const ExperimentResult r = quick_multi(benches, "Baseline");
  ASSERT_EQ(r.apps.size(), 2u);
  for (const AppRunResult& app : r.apps) EXPECT_GT(app.target.avg(), 0.0);
}

}  // namespace
}  // namespace hars
