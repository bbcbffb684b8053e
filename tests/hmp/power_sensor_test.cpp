#include "hmp/power_sensor.hpp"

#include <gtest/gtest.h>

namespace hars {
namespace {

class PowerSensorTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  PowerModel model_{machine_};
};

TEST_F(PowerSensorTest, EnergyIntegratesExactly) {
  PowerSensor sensor(machine_, model_);
  const std::vector<double> busy(8, 1.0);
  const double watts = model_.cluster_power(machine_.fastest_cluster(), 4.0) +
                       model_.cluster_power(machine_.slowest_cluster(), 4.0);
  TimeUs now = 0;
  for (int i = 0; i < 1000; ++i) {
    now += kUsPerMs;
    sensor.tick(now, kUsPerMs, busy);
  }
  // 1 second at `watts` (+1s of base power in the total).
  const double cluster_energy = sensor.cluster_energy_j(0) + sensor.cluster_energy_j(1);
  EXPECT_NEAR(cluster_energy, watts, 1e-6);
  EXPECT_NEAR(sensor.total_energy_j(), watts + model_.base_watts(), 1e-6);
}

TEST_F(PowerSensorTest, SamplesAtConfiguredPeriod) {
  PowerSensor sensor(machine_, model_, 10 * kUsPerMs, 0.0);
  const std::vector<double> busy(8, 0.5);
  TimeUs now = 0;
  for (int i = 0; i < 100; ++i) {  // 100 ms.
    now += kUsPerMs;
    sensor.tick(now, kUsPerMs, busy);
  }
  EXPECT_EQ(sensor.samples().size(), 10u);
  EXPECT_EQ(sensor.samples().front().time, 10 * kUsPerMs);
}

TEST_F(PowerSensorTest, DefaultPeriodMatchesPaper) {
  EXPECT_EQ(PowerSensor::kDefaultSamplePeriodUs, 263'808);
}

TEST_F(PowerSensorTest, NoiselessSamplesMatchTruth) {
  PowerSensor sensor(machine_, model_, 5 * kUsPerMs, 0.0);
  std::vector<double> busy(8, 0.0);
  busy[4] = 1.0;
  TimeUs now = 0;
  for (int i = 0; i < 10; ++i) {
    now += kUsPerMs;
    sensor.tick(now, kUsPerMs, busy);
  }
  ASSERT_FALSE(sensor.samples().empty());
  const PowerSample& s = sensor.samples().front();
  EXPECT_NEAR(s.cluster_watts[static_cast<std::size_t>(machine_.fastest_cluster())],
              model_.cluster_power(machine_.fastest_cluster(), 1.0), 1e-9);
}

TEST_F(PowerSensorTest, NoisySamplesAreUnbiasedButJittered) {
  PowerSensor sensor(machine_, model_, kUsPerMs, 0.05, /*seed=*/7);
  const std::vector<double> busy(8, 1.0);
  TimeUs now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += kUsPerMs;
    sensor.tick(now, kUsPerMs, busy);
  }
  const double truth = model_.cluster_power(machine_.fastest_cluster(), 4.0);
  double sum = 0.0;
  bool any_jitter = false;
  for (const auto& s : sensor.samples()) {
    const double v = s.cluster_watts[static_cast<std::size_t>(machine_.fastest_cluster())];
    sum += v;
    if (std::abs(v - truth) > 1e-9) any_jitter = true;
  }
  EXPECT_TRUE(any_jitter);
  EXPECT_NEAR(sum / static_cast<double>(sensor.samples().size()), truth,
              truth * 0.01);
}

TEST_F(PowerSensorTest, AveragePower) {
  PowerSensor sensor(machine_, model_);
  const std::vector<double> idle(8, 0.0);
  TimeUs now = 0;
  for (int i = 0; i < 500; ++i) {
    now += kUsPerMs;
    sensor.tick(now, kUsPerMs, idle);
  }
  const double avg = sensor.average_power_w(now);
  EXPECT_NEAR(avg, model_.total_power(idle), 1e-9);
  EXPECT_EQ(sensor.average_power_w(0), 0.0);
}

TEST_F(PowerSensorTest, ResetClearsState) {
  PowerSensor sensor(machine_, model_);
  const std::vector<double> busy(8, 1.0);
  sensor.tick(kUsPerMs, kUsPerMs, busy);
  EXPECT_GT(sensor.total_energy_j(), 0.0);
  sensor.reset();
  EXPECT_EQ(sensor.total_energy_j(), 0.0);
  EXPECT_TRUE(sensor.samples().empty());
}

}  // namespace
}  // namespace hars
