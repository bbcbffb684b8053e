#include "core/perf_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hars {
namespace {

class PerfEstimatorTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  PerfEstimator est_{machine_, 1.5};
};

TEST_F(PerfEstimatorTest, SpeedsScaleWithFrequencyLevels) {
  const SystemState low{4, 4, 0, 0};   // 0.8 / 0.8 GHz.
  const SystemState high{4, 4, 8, 5};  // 1.6 / 1.3 GHz.
  EXPECT_NEAR(est_.big_speed(low), 1.5 * 0.8, 1e-9);
  EXPECT_NEAR(est_.big_speed(high), 1.5 * 1.6, 1e-9);
  EXPECT_NEAR(est_.little_speed(high), 1.3, 1e-9);
}

TEST_F(PerfEstimatorTest, RatioVariesWithFrequencies) {
  // r = 1.5 * fB / fL can dip below 1 (big at 0.8, little at 1.3).
  const SystemState big_slow{4, 4, 0, 5};
  EXPECT_LT(est_.ratio(big_slow), 1.0);
  const SystemState big_fast{4, 4, 8, 0};
  EXPECT_NEAR(est_.ratio(big_fast), 1.5 * 1.6 / 0.8, 1e-9);
}

TEST_F(PerfEstimatorTest, UnitTimeMonotoneInFrequency) {
  // Non-increasing in f_B (the little cluster can be the bottleneck, in
  // which case raising f_B does not help), strictly better end to end.
  const int t = 8;
  double prev = 1e18;
  for (int fb = 0; fb < 9; ++fb) {
    const double ut = est_.unit_time(SystemState{4, 4, fb, 5}, t);
    EXPECT_LE(ut, prev + 1e-12);
    prev = ut;
  }
  EXPECT_LT(est_.unit_time(SystemState{4, 4, 8, 5}, t),
            est_.unit_time(SystemState{4, 4, 0, 5}, t));
}

TEST_F(PerfEstimatorTest, UnitTimeImprovesWithMoreCores) {
  const int t = 8;
  const double one_big = est_.unit_time(SystemState{1, 0, 8, 5}, t);
  const double four_big = est_.unit_time(SystemState{4, 0, 8, 5}, t);
  const double full = est_.unit_time(SystemState{4, 4, 8, 5}, t);
  EXPECT_GT(one_big, four_big);
  EXPECT_GT(four_big, full);
}

TEST_F(PerfEstimatorTest, ZeroCoresIsInfeasible) {
  EXPECT_TRUE(std::isinf(est_.unit_time(SystemState{0, 0, 0, 0}, 8)));
}

TEST_F(PerfEstimatorTest, EstimateRateScalesFromCurrent) {
  const SystemState cur{4, 4, 8, 5};
  const SystemState half_freq{4, 4, 0, 0};
  const double rate = est_.estimate_rate(half_freq, cur, 4.0, 8);
  // Both clusters drop to 0.8 GHz: rates scale by the t_f ratio.
  const double expected = 4.0 * est_.unit_time(cur, 8) / est_.unit_time(half_freq, 8);
  EXPECT_NEAR(rate, expected, 1e-9);
  EXPECT_LT(rate, 4.0);
}

TEST_F(PerfEstimatorTest, EstimateRateIdentity) {
  const SystemState cur{3, 2, 4, 2};
  EXPECT_NEAR(est_.estimate_rate(cur, cur, 2.5, 8), 2.5, 1e-9);
}

TEST_F(PerfEstimatorTest, EstimateRateInfeasibleCandidateIsZero) {
  const SystemState cur{4, 4, 8, 5};
  EXPECT_EQ(est_.estimate_rate(SystemState{0, 0, 0, 0}, cur, 4.0, 8), 0.0);
}

TEST_F(PerfEstimatorTest, AssignmentUsesTable) {
  // r(f=max) = 1.5 * 1.6/1.3 ~= 1.846; T=8, C_B=4 -> r*C_B ~= 7.38 < 8:
  // row 3: T_B = 7, T_L = 1.
  const ThreadAssignment a = est_.assignment(SystemState{4, 4, 8, 5}, 8);
  EXPECT_EQ(a.tb, 7);
  EXPECT_EQ(a.tl, 1);
}

TEST_F(PerfEstimatorTest, UtilizationBoundsAndBottleneck) {
  const ClusterUtilization u = est_.utilization(SystemState{4, 4, 8, 5}, 8);
  EXPECT_GT(u.big, 0.0);
  EXPECT_LE(u.big, 1.0 + 1e-12);
  EXPECT_GE(u.little, 0.0);
  EXPECT_LE(u.little, 1.0 + 1e-12);
  EXPECT_GE(std::max(u.big, u.little), 1.0 - 1e-9);  // Someone is critical.
}

TEST_F(PerfEstimatorTest, R0Settable) {
  est_.set_r0(1.0);
  EXPECT_DOUBLE_EQ(est_.r0(), 1.0);
  const SystemState s{4, 4, 8, 8};
  EXPECT_NEAR(est_.ratio(SystemState{4, 4, 0, 0}), 1.0, 1e-9);
  (void)s;
}

}  // namespace
}  // namespace hars
