#include "core/power_estimator.hpp"

#include <gtest/gtest.h>

#include "core/power_profiler.hpp"
#include "hmp/platform_spec.hpp"

namespace hars {
namespace {

class PowerEstimatorTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  PowerModel model_{machine_, PlatformSpec::from_machine(machine_)};
  PowerCoeffTable table_ = profile_power(machine_, model_);
  PerfEstimator perf_{machine_, 1.5};
};

TEST_F(PowerEstimatorTest, ProfilerFitsEveryLevelWell) {
  ASSERT_EQ(table_.big.alpha.size(), 9u);
  ASSERT_EQ(table_.little.alpha.size(), 6u);
  for (double r2 : table_.big.r_squared) EXPECT_GT(r2, 0.97);
  for (double r2 : table_.little.r_squared) EXPECT_GT(r2, 0.97);
}

TEST_F(PowerEstimatorTest, AlphaGrowsWithFrequency) {
  for (std::size_t i = 1; i < table_.big.alpha.size(); ++i) {
    EXPECT_GT(table_.big.alpha[i], table_.big.alpha[i - 1]);
  }
  for (std::size_t i = 1; i < table_.little.alpha.size(); ++i) {
    EXPECT_GT(table_.little.alpha[i], table_.little.alpha[i - 1]);
  }
}

TEST_F(PowerEstimatorTest, BigAlphaDominatesLittle) {
  // A big core at max frequency costs far more than a little core at max.
  EXPECT_GT(table_.big.alpha.back(), 3.0 * table_.little.alpha.back());
}

TEST_F(PowerEstimatorTest, EstimateMatchesGroundTruthClosely) {
  PowerEstimator est(table_);
  for (int level : {0, 4, 8}) {
    machine_.set_freq_level(machine_.fastest_cluster(), level);
    for (double busy : {1.0, 2.0, 3.5}) {
      const double truth = model_.cluster_power(machine_.fastest_cluster(), busy);
      const SystemState s{4, 0, level, 0};
      const double est_w = est.big_power(s, static_cast<int>(busy) == 0 ? 0 : 4,
                                         busy / 4.0);
      EXPECT_NEAR(est_w, truth, truth * 0.10 + 0.05)
          << "level=" << level << " busy=" << busy;
    }
  }
}

TEST_F(PowerEstimatorTest, IdleClusterStillHasBeta) {
  PowerEstimator est(table_);
  const SystemState s{0, 4, 0, 5};
  EXPECT_GT(est.big_power(s, 0, 0.0), 0.0);  // Beta = leakage floor.
}

TEST_F(PowerEstimatorTest, EstimateMonotoneInCores) {
  PowerEstimator est(table_);
  double prev = 0.0;
  for (int cb = 1; cb <= 4; ++cb) {
    const double p = est.estimate(SystemState{cb, 0, 8, 0}, 8, perf_);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST_F(PowerEstimatorTest, EstimateMonotoneInBigFrequencyWhenSaturated) {
  PowerEstimator est(table_);
  double prev = 0.0;
  for (int fb = 0; fb < 9; ++fb) {
    // 8 threads on 4 big cores: always saturated -> higher f, more power.
    const double p = est.estimate(SystemState{4, 0, fb, 0}, 8, perf_);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST_F(PowerEstimatorTest, LittleOnlyCheaperThanBigOnly) {
  PowerEstimator est(table_);
  const double big = est.estimate(SystemState{4, 0, 8, 0}, 8, perf_);
  const double little = est.estimate(SystemState{0, 4, 0, 5}, 8, perf_);
  EXPECT_GT(big, 2.0 * little);
}

TEST_F(PowerEstimatorTest, FreqLevelClampedInsteadOfCrashing) {
  PowerEstimator est(table_);
  const SystemState s{2, 0, 42, 0};  // Bogus level.
  EXPECT_GT(est.big_power(s, 2, 1.0), 0.0);
}

}  // namespace
}  // namespace hars
