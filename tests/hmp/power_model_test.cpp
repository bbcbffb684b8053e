#include "hmp/power_model.hpp"
#include "hmp/platform_spec.hpp"

#include <gtest/gtest.h>

namespace hars {
namespace {

class PowerModelTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  PowerModel model_{machine_, PlatformSpec::from_machine(machine_)};
};

TEST_F(PowerModelTest, IdleClusterDrawsLeakageOnly) {
  const double idle_big = model_.cluster_power(machine_.fastest_cluster(), 0.0);
  EXPECT_GT(idle_big, 0.0);
  EXPECT_LT(idle_big, 0.5);  // Leakage-only.
}

TEST_F(PowerModelTest, PowerIncreasesWithBusySum) {
  double prev = -1.0;
  for (double busy = 0.0; busy <= 4.0; busy += 0.5) {
    const double p = model_.cluster_power(machine_.fastest_cluster(), busy);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST_F(PowerModelTest, PowerIncreasesWithFrequency) {
  double prev = -1.0;
  for (int level = 0; level < machine_.num_freq_levels(machine_.fastest_cluster());
       ++level) {
    machine_.set_freq_level(machine_.fastest_cluster(), level);
    const double p = model_.cluster_power(machine_.fastest_cluster(), 4.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST_F(PowerModelTest, BigClusterFullLoadNearPublishedEnvelope) {
  // XU3 A15 cluster flat out is ~5-6 W.
  const double p = model_.cluster_power(machine_.fastest_cluster(), 4.0);
  EXPECT_GT(p, 4.0);
  EXPECT_LT(p, 7.0);
}

TEST_F(PowerModelTest, LittleClusterFullLoadNearPublishedEnvelope) {
  // A7 cluster flat out is ~1 W.
  const double p = model_.cluster_power(machine_.slowest_cluster(), 4.0);
  EXPECT_GT(p, 0.5);
  EXPECT_LT(p, 2.0);
}

TEST_F(PowerModelTest, BigCoreCostsMoreThanLittleCore) {
  const double big1 = model_.cluster_power(machine_.fastest_cluster(), 1.0) -
                      model_.cluster_power(machine_.fastest_cluster(), 0.0);
  const double little1 = model_.cluster_power(machine_.slowest_cluster(), 1.0) -
                         model_.cluster_power(machine_.slowest_cluster(), 0.0);
  EXPECT_GT(big1, 3.0 * little1);
}

TEST_F(PowerModelTest, OfflineClusterDrawsNothing) {
  machine_.set_online_mask(CpuMask::range(0, 4));  // Little only.
  EXPECT_EQ(model_.cluster_power(machine_.fastest_cluster(), 0.0), 0.0);
  EXPECT_GT(model_.cluster_power(machine_.slowest_cluster(), 0.0), 0.0);
}

TEST_F(PowerModelTest, TotalPowerIncludesBaseFloor) {
  const std::vector<double> idle(8, 0.0);
  const double total = model_.total_power(idle);
  EXPECT_GE(total, model_.base_watts());
}

TEST_F(PowerModelTest, TotalPowerSumsClusters) {
  std::vector<double> busy(8, 0.0);
  busy[0] = 1.0;  // Little core.
  busy[4] = 1.0;  // Big core.
  const double total = model_.total_power(busy);
  const double expected = model_.base_watts() +
                          model_.cluster_power(machine_.slowest_cluster(), 1.0) +
                          model_.cluster_power(machine_.fastest_cluster(), 1.0);
  EXPECT_NEAR(total, expected, 1e-12);
}

TEST_F(PowerModelTest, ThermalTermMakesTruthNonlinear) {
  // P(2u) != 2*P(u) - P(0): the regression must see residuals.
  const double p0 = model_.cluster_power(machine_.fastest_cluster(), 0.0);
  const double p2 = model_.cluster_power(machine_.fastest_cluster(), 2.0);
  const double p4 = model_.cluster_power(machine_.fastest_cluster(), 4.0);
  EXPECT_NE(p4 - p2, p2 - p0);
}

TEST(PowerParams, ForTypeSelectsCorrectParams) {
  EXPECT_EQ(PowerParams::for_type(CoreType::kBig).c_dyn,
            PowerParams::cortex_a15().c_dyn);
  EXPECT_EQ(PowerParams::for_type(CoreType::kLittle).c_dyn,
            PowerParams::cortex_a7().c_dyn);
}

}  // namespace
}  // namespace hars
