#include "hmp/power_sensor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hmp/platform_registry.hpp"
#include "util/rng.hpp"

namespace hars {
namespace {

class PowerSensorTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  PowerModel model_{machine_, PlatformSpec::from_machine(machine_)};
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

// SimEngine feeds the sensor through tick_presummed (per-cluster busy sums
// plus the frequency and any-core-online snapshots); tick() is the
// reference tick's path. Drives both with the same per-core busy vectors
// under DVFS changes and `offline` and asserts bit-identical energy,
// instant power and samples.
void expect_presummed_matches_tick(Machine& machine, const PowerModel& model,
                                   CpuMask offline) {
  const TimeUs period = 5 * kUsPerMs;
  PowerSensor reference(machine, model, period, 0.02, /*seed=*/3);
  PowerSensor presummed(machine, model, period, 0.02, /*seed=*/3);
  const auto clusters = static_cast<std::size_t>(machine.num_clusters());
  std::vector<double> busy(static_cast<std::size_t>(machine.num_cores()));
  std::vector<double> cluster_busy(clusters);
  std::vector<double> cluster_freq(clusters);
  std::vector<char> cluster_online(clusters);
  Rng rng(11);
  TimeUs now = 0;
  for (int i = 0; i < 60; ++i) {
    if (i % 7 == 0) {
      for (ClusterId c = 0; c < machine.num_clusters(); ++c) {
        machine.set_freq_level(c, (i / 7 + c) % machine.num_freq_levels(c));
      }
    }
    // Offline for the second half, as a hotplug event would leave it.
    machine.set_online_mask(i < 30 ? machine.all_mask()
                                   : machine.all_mask() & ~offline);
    for (CoreId core = 0; core < machine.num_cores(); ++core) {
      busy[static_cast<std::size_t>(core)] =
          machine.is_online(core) ? rng.next_double() : 0.0;
    }
    for (ClusterId c = 0; c < machine.num_clusters(); ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const CpuMask mask = machine.cluster_mask(c);
      cluster_busy[ci] = 0.0;
      for (CoreId core = mask.first(); core >= 0; core = mask.next(core)) {
        cluster_busy[ci] += busy[static_cast<std::size_t>(core)];
      }
      cluster_freq[ci] = machine.freq_ghz(c);
      cluster_online[ci] = (machine.online_mask() & mask).any() ? 1 : 0;
    }
    now += kUsPerMs;
    reference.tick(now, kUsPerMs, busy);
    presummed.tick_presummed(now, kUsPerMs, cluster_busy, cluster_freq,
                             cluster_online);
    ASSERT_EQ(presummed.instantaneous_power_w(),
              reference.instantaneous_power_w())
        << "tick " << i;
  }
  for (ClusterId c = 0; c < machine.num_clusters(); ++c) {
    EXPECT_EQ(presummed.cluster_energy_j(c), reference.cluster_energy_j(c))
        << "cluster " << c;
  }
  EXPECT_EQ(presummed.total_energy_j(), reference.total_energy_j());
  ASSERT_EQ(presummed.samples().size(), 12u);
  ASSERT_EQ(reference.samples().size(), 12u);
  for (std::size_t i = 0; i < reference.samples().size(); ++i) {
    const PowerSample& want = reference.samples()[i];
    const PowerSample& got = presummed.samples()[i];
    EXPECT_EQ(got.time, want.time) << "sample " << i;
    EXPECT_EQ(got.cluster_watts, want.cluster_watts) << "sample " << i;
    EXPECT_EQ(got.total_watts, want.total_watts) << "sample " << i;
  }
}

TEST(PowerSensorPaths, PresummedMatchesTickOnExynos) {
  const PlatformSpec spec = PlatformRegistry::instance().get("exynos5422");
  Machine machine = spec.make_machine();
  const PowerModel model(machine, spec);
  CpuMask offline;
  offline.set(2);
  offline.set(5);
  expect_presummed_matches_tick(machine, model, offline);
}

TEST(PowerSensorPaths, PresummedMatchesTickWithAClusterFullyOffline) {
  const PlatformSpec spec = PlatformRegistry::instance().get("sd855");
  Machine machine = spec.make_machine();
  ASSERT_EQ(machine.num_clusters(), 3);
  const PowerModel model(machine, spec);
  // The whole one-core prime cluster plus one core of the big cluster.
  const CpuMask offline = machine.cluster_mask(2) | CpuMask::single(4);
  expect_presummed_matches_tick(machine, model, offline);
}

}  // namespace
}  // namespace hars
