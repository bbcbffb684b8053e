#include "core/ratio_learner.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hars {
namespace {

class RatioLearnerTest : public testing::Test {
 protected:
  /// Generates the rate the Table-3.1 model predicts for `state` under a
  /// ground-truth ratio, times a per-app constant.
  double true_rate(const SystemState& state, double true_r, double k = 5.0,
                   double noise = 0.0) {
    PerfEstimator est(machine_, true_r);
    const double tf = est.unit_time(state, threads_);
    double rate = k / tf;
    if (noise > 0.0) rate *= (1.0 + rng_.normal(0.0, noise));
    return rate;
  }

  Machine machine_ = Machine::exynos5422();
  int threads_ = 8;
  Rng rng_{11};
  std::vector<SystemState> mixed_states_{
      {4, 0, 8, 5}, {0, 4, 8, 5}, {2, 2, 4, 3}, {4, 4, 8, 5},
      {1, 3, 2, 4}, {3, 1, 6, 1}, {2, 4, 5, 5}, {4, 2, 3, 0}};
};

TEST_F(RatioLearnerTest, PriorUntilEnoughSamples) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  EXPECT_DOUBLE_EQ(learner.estimate(), 1.5);
  learner.observe(SystemState{4, 4, 8, 5}, 3.0);
  EXPECT_DOUBLE_EQ(learner.estimate(), 1.5);
  EXPECT_EQ(learner.samples(), 1u);
}

TEST_F(RatioLearnerTest, PriorWhenUnidentifiable) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  // Many samples but always the same core mix: r cannot be identified.
  for (int f = 0; f < 9; ++f) {
    learner.observe(SystemState{4, 4, f, 5}, true_rate({4, 4, f, 5}, 1.2));
  }
  EXPECT_DOUBLE_EQ(learner.estimate(), 1.5);
}

TEST_F(RatioLearnerTest, RecoversTrueRatioNoiseless) {
  for (double true_r : {1.0, 1.5, 2.0, 2.5}) {
    RatioLearner learner(machine_, threads_, kAssumedR0);
    for (const auto& s : mixed_states_) {
      learner.observe(s, true_rate(s, true_r));
    }
    EXPECT_NEAR(learner.estimate(), true_r, 0.051) << "true r = " << true_r;
  }
}

TEST_F(RatioLearnerTest, RecoversBlackscholesRatioUnderNoise) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& s : mixed_states_) {
      learner.observe(s, true_rate(s, 1.0, 5.0, 0.03));
    }
  }
  EXPECT_NEAR(learner.estimate(), 1.0, 0.15);
}

TEST_F(RatioLearnerTest, FitResidualLowForModelConsistentData) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  for (const auto& s : mixed_states_) learner.observe(s, true_rate(s, 1.5));
  EXPECT_LT(learner.fit_residual(), 1e-3);
}

TEST_F(RatioLearnerTest, IgnoresNonPositiveRates) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  learner.observe(SystemState{4, 4, 8, 5}, 0.0);
  learner.observe(SystemState{4, 4, 8, 5}, -1.0);
  EXPECT_EQ(learner.samples(), 0u);
}

TEST_F(RatioLearnerTest, ResetRestoresPrior) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  for (const auto& s : mixed_states_) learner.observe(s, true_rate(s, 2.0));
  EXPECT_NEAR(learner.estimate(), 2.0, 0.06);
  learner.reset();
  EXPECT_DOUBLE_EQ(learner.estimate(), 1.5);
  EXPECT_EQ(learner.samples(), 0u);
}

TEST_F(RatioLearnerTest, SlidingWindowForgetsOldRegime) {
  // Four core mixes hold at most 4 * kPerMixCap observations, fewer than
  // kHistory, so only the per-mix cap can evict here.
  const std::vector<SystemState> states(mixed_states_.begin(),
                                        mixed_states_.begin() + 4);
  static_assert(4 * RatioLearner::kPerMixCap < RatioLearner::kHistory);
  RatioLearner learner(machine_, threads_, kAssumedR0);
  // Old regime r=2.5 ...
  for (const auto& s : states) learner.observe(s, true_rate(s, 2.5));
  // ... displaced by kPerMixCap passes of a new regime at r=1.0 (the
  // last pass's per-mix cap evicts the stale entries state by state).
  for (std::size_t pass = 0; pass < RatioLearner::kPerMixCap; ++pass) {
    for (const auto& s : states) learner.observe(s, true_rate(s, 1.0));
  }
  EXPECT_NEAR(learner.estimate(), 1.0, 0.1);
}

TEST_F(RatioLearnerTest, PerMixCapPreservesExplorationEvidence) {
  RatioLearner learner(machine_, threads_, kAssumedR0);
  // A short exploration phase over mixed states...
  for (const auto& s : mixed_states_) learner.observe(s, true_rate(s, 1.0));
  // ...followed by a long settled phase in one state must not wipe out
  // identifiability.
  const SystemState settled{0, 4, 0, 2};
  for (int i = 0; i < 500; ++i) {
    learner.observe(settled, true_rate(settled, 1.0, 5.0, 0.01));
  }
  EXPECT_NEAR(learner.estimate(), 1.0, 0.15);
}

}  // namespace
}  // namespace hars
