#include "hmp/machine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hars {
namespace {

TEST(Machine, Exynos5422Topology) {
  const Machine m = Machine::exynos5422();
  EXPECT_EQ(m.num_clusters(), 2);
  EXPECT_EQ(m.num_cores(), 8);
  // Little cores are cpu0-3, big cores cpu4-7 as on the XU3.
  EXPECT_EQ(m.core_type(0), CoreType::kLittle);
  EXPECT_EQ(m.core_type(3), CoreType::kLittle);
  EXPECT_EQ(m.core_type(4), CoreType::kBig);
  EXPECT_EQ(m.core_type(7), CoreType::kBig);
  EXPECT_EQ(m.slowest_mask(), CpuMask::range(0, 4));
  EXPECT_EQ(m.fastest_mask(), CpuMask::range(4, 4));
}

TEST(Machine, Exynos5422FrequencyTables) {
  const Machine m = Machine::exynos5422();
  EXPECT_EQ(m.num_freq_levels(m.slowest_cluster()), 6);  // 0.8 - 1.3 GHz
  EXPECT_EQ(m.num_freq_levels(m.fastest_cluster()), 9);     // 0.8 - 1.6 GHz
  EXPECT_NEAR(m.freq_ghz_at_level(m.slowest_cluster(), 0), 0.8, 1e-9);
  EXPECT_NEAR(m.freq_ghz_at_level(m.slowest_cluster(), 5), 1.3, 1e-9);
  EXPECT_NEAR(m.freq_ghz_at_level(m.fastest_cluster(), 8), 1.6, 1e-9);
}

TEST(Machine, BootsAtMaxFrequency) {
  const Machine m = Machine::exynos5422();
  EXPECT_EQ(m.freq_level(m.fastest_cluster()), 8);
  EXPECT_EQ(m.freq_level(m.slowest_cluster()), 5);
}

TEST(Machine, SetFreqLevelClamped) {
  Machine m = Machine::exynos5422();
  m.set_freq_level(m.fastest_cluster(), 100);
  EXPECT_EQ(m.freq_level(m.fastest_cluster()), 8);
  m.set_freq_level(m.fastest_cluster(), -5);
  EXPECT_EQ(m.freq_level(m.fastest_cluster()), 0);
}

TEST(Machine, SetFreqGhzSnapsToNearest) {
  Machine m = Machine::exynos5422();
  m.set_freq_ghz(m.fastest_cluster(), 1.234);
  EXPECT_NEAR(m.freq_ghz(m.fastest_cluster()), 1.2, 1e-9);
  m.set_freq_ghz(m.slowest_cluster(), 99.0);
  EXPECT_NEAR(m.freq_ghz(m.slowest_cluster()), 1.3, 1e-9);
}

TEST(Machine, SetFreqGhzExactMidpointPrefersLowerLevel) {
  // Levels chosen so the midpoints (1.5, 2.5) are exactly representable:
  // the tie must break deterministically toward the lower level.
  MachineSpec spec;
  spec.name = "midpoint";
  ClusterSpec c;
  c.type = CoreType::kBig;
  c.core_count = 1;
  c.ipc = 1.0;
  c.freqs_ghz = {1.0, 2.0, 3.0};
  spec.clusters = {c};
  Machine m{spec};
  m.set_freq_ghz(0, 1.5);
  EXPECT_EQ(m.freq_level(0), 0);
  m.set_freq_ghz(0, 2.5);
  EXPECT_EQ(m.freq_level(0), 1);
  // Just past the midpoint snaps up.
  m.set_freq_ghz(0, 1.500000001);
  EXPECT_EQ(m.freq_level(0), 1);
}

TEST(Machine, CapabilityApiOnExynos) {
  const Machine m = Machine::exynos5422();
  // big (cluster 1) has the higher peak speed: 3 * 1.6 > 2 * 1.3.
  EXPECT_EQ(m.fastest_cluster(), 1);
  EXPECT_EQ(m.slowest_cluster(), 0);
  EXPECT_EQ(m.fastest_mask(), CpuMask::range(4, 4));
  EXPECT_EQ(m.slowest_mask(), CpuMask::range(0, 4));
  EXPECT_NEAR(m.cluster_peak_speed(1), 4.8, 1e-9);
  EXPECT_NEAR(m.cluster_peak_speed(0), 2.6, 1e-9);
  const std::vector<ClusterId> order = m.clusters_by_perf();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(Machine, CoreSpeedScalesWithIpcAndFreq) {
  Machine m = Machine::exynos5422();
  // big: ipc 3 @ 1.6 GHz; little: ipc 2 @ 1.3 GHz.
  EXPECT_NEAR(m.core_speed(4), 4.8, 1e-9);
  EXPECT_NEAR(m.core_speed(0), 2.6, 1e-9);
  m.set_freq_ghz(m.fastest_cluster(), 0.8);
  EXPECT_NEAR(m.core_speed(4), 2.4, 1e-9);
}

TEST(Machine, R0FromInstructionWidths) {
  Machine m = Machine::exynos5422();
  m.set_freq_ghz(m.fastest_cluster(), 1.0);
  m.set_freq_ghz(m.slowest_cluster(), 1.0);
  EXPECT_NEAR(m.core_speed(4) / m.core_speed(0), 1.5, 1e-9);
}

TEST(Machine, OnlineMaskKeepsCpu0) {
  Machine m = Machine::exynos5422();
  m.set_online_mask(CpuMask());
  EXPECT_TRUE(m.is_online(0));
  EXPECT_EQ(m.online_mask().count(), 1);
}

TEST(Machine, OnlineMaskClampedToExistingCores) {
  Machine m = Machine::exynos5422();
  m.set_online_mask(CpuMask(~0ULL));
  EXPECT_EQ(m.online_mask().count(), 8);
}

TEST(Machine, ClusterOfEveryCore) {
  const Machine m = Machine::exynos5422();
  for (CoreId c = 0; c < 4; ++c) EXPECT_EQ(m.cluster_of(c), m.slowest_cluster());
  for (CoreId c = 4; c < 8; ++c) EXPECT_EQ(m.cluster_of(c), m.fastest_cluster());
}

TEST(Machine, InvalidSpecsThrow) {
  MachineSpec empty;
  EXPECT_THROW(Machine{empty}, std::invalid_argument);

  MachineSpec bad_freqs;
  ClusterSpec c;
  c.freqs_ghz = {1.2, 0.8};  // Not ascending.
  bad_freqs.clusters = {c};
  EXPECT_THROW(Machine{bad_freqs}, std::invalid_argument);

  MachineSpec zero_cores;
  ClusterSpec z;
  z.core_count = 0;
  z.freqs_ghz = {1.0};
  zero_cores.clusters = {z};
  EXPECT_THROW(Machine{zero_cores}, std::invalid_argument);
}

TEST(Machine, CustomAsymmetricMachine) {
  MachineSpec spec;
  spec.name = "2+6";
  ClusterSpec little;
  little.type = CoreType::kLittle;
  little.core_count = 6;
  little.freqs_ghz = {0.5, 1.0};
  little.ipc = 1.5;
  ClusterSpec big;
  big.type = CoreType::kBig;
  big.core_count = 2;
  big.freqs_ghz = {1.0, 2.0, 3.0};
  big.ipc = 4.0;
  spec.clusters = {little, big};
  const Machine m{spec};
  EXPECT_EQ(m.num_cores(), 8);
  EXPECT_EQ(m.cluster_core_count(m.fastest_cluster()), 2);
  EXPECT_EQ(m.fastest_mask(), CpuMask::range(6, 2));
}

}  // namespace
}  // namespace hars
