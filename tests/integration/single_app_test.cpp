// End-to-end single-application runs: the orderings the paper's Figures
// 5.1-5.3 depend on must hold on the simulated platform.
#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "exp/experiment.hpp"
#include "exp/static_optimal.hpp"
#include "hmp/platform_registry.hpp"

namespace hars {
namespace {

const PlatformSpec& exynos5422() {
  static const PlatformSpec platform =
      PlatformRegistry::instance().get("exynos5422");
  return platform;
}

ExperimentBuilder quick(ParsecBenchmark bench, const char* variant,
                        double fraction = 0.5) {
  ExperimentBuilder builder;
  builder.app(bench)
      .variant(variant)
      .target_fraction(fraction)
      .duration(80 * kUsPerSec);
  return builder;
}

TEST(Calibration, MaxRatesAreReasonable) {
  for (ParsecBenchmark b : all_parsec_benchmarks()) {
    const Calibration cal = calibrate_benchmark(exynos5422(), b);
    EXPECT_GT(cal.max_rate_hps, 0.5) << parsec_name(b);
    EXPECT_LT(cal.max_rate_hps, 50.0) << parsec_name(b);
    EXPECT_NEAR(cal.default_target.avg(), 0.5 * cal.max_rate_hps, 1e-9);
    EXPECT_NEAR(cal.high_target.avg(), 0.75 * cal.max_rate_hps, 1e-9);
  }
}

TEST(Calibration, Memoized) {
  const Calibration a =
      calibrate_benchmark(exynos5422(), ParsecBenchmark::kSwaptions);
  const Calibration b =
      calibrate_benchmark(exynos5422(), ParsecBenchmark::kSwaptions);
  EXPECT_EQ(a.max_rate_hps, b.max_rate_hps);
}

TEST(SingleApp, BaselineOverperformsAndBurnsPower) {
  const ExperimentResult r =
      quick(ParsecBenchmark::kSwaptions, "Baseline").build().run();
  EXPECT_GT(r.app().metrics.avg_rate_hps, r.app().target.max);  // Overperforms.
  EXPECT_NEAR(r.app().metrics.norm_perf, 1.0, 0.05);
  EXPECT_GT(r.app().metrics.avg_power_w, 4.0);  // Near-max machine power.
}

TEST(SingleApp, HarsEBeatsBaselinePerfPerWatt) {
  const ExperimentResult base =
      quick(ParsecBenchmark::kSwaptions, "Baseline").build().run();
  const ExperimentResult hars =
      quick(ParsecBenchmark::kSwaptions, "HARS-E").build().run();
  EXPECT_GT(hars.app().metrics.perf_per_watt,
            1.5 * base.app().metrics.perf_per_watt);
  // And it still (mostly) delivers the target.
  EXPECT_GT(hars.app().metrics.norm_perf, 0.85);
}

TEST(SingleApp, HarsEAtLeastAsGoodAsHarsI) {
  const ExperimentResult hi =
      quick(ParsecBenchmark::kBodytrack, "HARS-I").build().run();
  const ExperimentResult he =
      quick(ParsecBenchmark::kBodytrack, "HARS-E").build().run();
  EXPECT_GT(he.app().metrics.perf_per_watt,
            0.9 * hi.app().metrics.perf_per_watt);
}

TEST(SingleApp, StaticOptimalBeatsBaseline) {
  const ExperimentResult base =
      quick(ParsecBenchmark::kBlackscholes, "Baseline").build().run();
  const ExperimentResult so =
      quick(ParsecBenchmark::kBlackscholes, "SO").build().run();
  EXPECT_GT(so.app().metrics.perf_per_watt,
            1.5 * base.app().metrics.perf_per_watt);
  EXPECT_TRUE(so.static_state.has_value());
}

TEST(SingleApp, FerretInterleavedBeatsChunk) {
  // The ferret story (§5.1.2): the chunk scheduler maps pipeline stages
  // onto one cluster and bottlenecks; interleaving fixes it.
  const ExperimentResult chunk =
      quick(ParsecBenchmark::kFerret, "HARS-E").build().run();
  const ExperimentResult inter =
      quick(ParsecBenchmark::kFerret, "HARS-EI").build().run();
  EXPECT_GE(inter.app().metrics.perf_per_watt,
            0.95 * chunk.app().metrics.perf_per_watt);
  EXPECT_GE(inter.app().metrics.norm_perf + 0.05, chunk.app().metrics.norm_perf);
}

TEST(SingleApp, HarsTracksHighTargetToo) {
  const ExperimentResult r =
      quick(ParsecBenchmark::kSwaptions, "HARS-E", 0.75).build().run();
  EXPECT_GT(r.app().metrics.norm_perf, 0.85);
}

TEST(SingleApp, ManagerOverheadGrowsWithDistance) {
  const auto run_d = [](int d) {
    return quick(ParsecBenchmark::kSwaptions, "HARS-EI")
        .duration(40 * kUsPerSec)
        .search_distance(d)
        .build()
        .run();
  };
  const ExperimentResult d1 = run_d(1);
  const ExperimentResult d9 = run_d(9);
  EXPECT_GE(d9.app().metrics.manager_cpu_pct, d1.app().metrics.manager_cpu_pct);
  EXPECT_LT(d9.app().metrics.manager_cpu_pct, 8.0);  // Paper: under ~6%.
}

TEST(StaticOptimal, ChoosesTargetSatisfyingState) {
  const Calibration cal =
      calibrate_benchmark(exynos5422(), ParsecBenchmark::kSwaptions);
  const StaticOptimalResult so =
      find_static_optimal(ParsecBenchmark::kSwaptions, cal.default_target);
  EXPECT_TRUE(so.satisfies_target);
  EXPECT_GT(so.measured_pp, 0.0);
  // Memoization returns the identical state.
  const StaticOptimalResult again =
      find_static_optimal(ParsecBenchmark::kSwaptions, cal.default_target);
  EXPECT_EQ(so.state, again.state);
}

TEST(StaticOptimal, UsesFewerResourcesThanMax) {
  const Calibration cal =
      calibrate_benchmark(exynos5422(), ParsecBenchmark::kSwaptions);
  const StaticOptimalResult so =
      find_static_optimal(ParsecBenchmark::kSwaptions, cal.default_target);
  const SystemState max_state =
      StateSpace::from_machine(Machine::exynos5422()).max_state();
  EXPECT_GT(manhattan_distance(so.state, max_state), 0);
}

}  // namespace
}  // namespace hars
