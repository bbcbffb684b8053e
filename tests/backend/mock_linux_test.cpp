// MockLinuxBackend: exact actuation sequences. Every sysfs write and
// affinity call LinuxBackend issues lands in the fixture's logs, so
// these tests pin the kernel-facing protocol — governor arming, kHz
// values, per-cpu hotplug cascades, affinity cpu lists — without
// hardware.
#include "backend/mock_linux_backend.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hars {
namespace {

constexpr const char* kLittleDir = "sys/devices/system/cpu/cpu0/cpufreq";
constexpr const char* kBigDir = "sys/devices/system/cpu/cpu4/cpufreq";

std::string cpu_online(int cpu) {
  return "sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/online";
}

TEST(MockLinuxDvfs, FirstWriteArmsUserspaceGovernorThenSetspeed) {
  MockLinuxBackend b;
  b.fake_sysfs().clear_writes();

  const ClusterId little = b.topology().slowest_cluster();
  b.set_dvfs_level(little, 3);  // 0.8 GHz on the A7 ladder.

  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].path, std::string(kLittleDir) + "/scaling_governor");
  EXPECT_EQ(w[0].value, "userspace");
  EXPECT_EQ(w[1].path, std::string(kLittleDir) + "/scaling_setspeed");
  EXPECT_EQ(w[1].value, "800000");
}

TEST(MockLinuxDvfs, GovernorIsArmedOncePerCluster) {
  MockLinuxBackend b;
  const ClusterId little = b.topology().slowest_cluster();
  b.set_dvfs_level(little, 3);
  b.fake_sysfs().clear_writes();

  b.set_dvfs_level(little, 5);  // 1.2 GHz.
  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].path, std::string(kLittleDir) + "/scaling_setspeed");
  EXPECT_EQ(w[0].value, "1200000");
}

// A kernel without the userspace governor module refuses the governor
// write: nothing latches, so the governor is armed once the node exists.
TEST(MockLinuxDvfs, RefusedGovernorWriteDoesNotLatch) {
  const std::string governor = std::string(kLittleDir) + "/scaling_governor";
  FakeSysfs fixture = FakeSysfs::exynos5422();
  fixture.remove(governor);
  MockLinuxBackend b(std::move(fixture));
  const ClusterId little = b.topology().slowest_cluster();
  b.fake_sysfs().clear_writes();

  b.set_dvfs_level(little, 3);
  b.set_dvfs_level(little, 4);
  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 2u);  // The setspeed writes only.
  EXPECT_EQ(w[0].path, std::string(kLittleDir) + "/scaling_setspeed");
  EXPECT_EQ(w[1].path, std::string(kLittleDir) + "/scaling_setspeed");

  b.fake_sysfs().set(governor, "performance");
  b.fake_sysfs().clear_writes();
  b.set_dvfs_level(little, 5);
  b.set_dvfs_level(little, 6);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].path, governor);
  EXPECT_EQ(w[0].value, "userspace");
  EXPECT_EQ(w[1].value, "1200000");
  EXPECT_EQ(w[2].path, std::string(kLittleDir) + "/scaling_setspeed");
  EXPECT_EQ(w[2].value, "1400000");
}

TEST(MockLinuxDvfs, OutOfRangeLevelsClampToLadderEdges) {
  MockLinuxBackend b;
  const ClusterId big = b.topology().fastest_cluster();
  const ClusterId little = b.topology().slowest_cluster();
  b.fake_sysfs().clear_writes();

  b.set_dvfs_level(big, 99);    // Clamps to level 9 = 2.0 GHz.
  b.set_dvfs_level(little, -7);  // Clamps to level 0 = 0.2 GHz.

  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 4u);  // governor+setspeed per cluster (first write).
  EXPECT_EQ(w[1].path, std::string(kBigDir) + "/scaling_setspeed");
  EXPECT_EQ(w[1].value, "2000000");
  EXPECT_EQ(w[3].path, std::string(kLittleDir) + "/scaling_setspeed");
  EXPECT_EQ(w[3].value, "200000");
  EXPECT_EQ(b.dvfs_level(big), 9);
  EXPECT_EQ(b.dvfs_level(little), 0);
}

TEST(MockLinuxDvfs, MinMaxPairWhenSetspeedIsAbsent) {
  FakeSysfs fixture = FakeSysfs::exynos5422();
  fixture.remove("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed");
  MockLinuxBackend b(std::move(fixture));
  const ClusterId little = b.topology().slowest_cluster();
  b.fake_sysfs().clear_writes();

  b.set_dvfs_level(little, 3);
  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].path, std::string(kLittleDir) + "/scaling_min_freq");
  EXPECT_EQ(w[0].value, "800000");
  EXPECT_EQ(w[1].path, std::string(kLittleDir) + "/scaling_max_freq");
  EXPECT_EQ(w[1].value, "800000");
}

// Raising the pinned pair must move max first: writing min above the
// current max is a min > max policy, which cpufreq rejects.
TEST(MockLinuxDvfs, MinMaxPairRaisesMaxBeforeMin) {
  FakeSysfs fixture = FakeSysfs::exynos5422();
  fixture.remove("sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed");
  MockLinuxBackend b(std::move(fixture));
  const ClusterId little = b.topology().slowest_cluster();
  b.set_dvfs_level(little, 3);
  b.fake_sysfs().clear_writes();

  b.set_dvfs_level(little, 5);  // 1.2 GHz, above the pinned 0.8 GHz.
  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].path, std::string(kLittleDir) + "/scaling_max_freq");
  EXPECT_EQ(w[0].value, "1200000");
  EXPECT_EQ(w[1].path, std::string(kLittleDir) + "/scaling_min_freq");
  EXPECT_EQ(w[1].value, "1200000");
}

TEST(MockLinuxHotplug, CascadeWritesEachToggledCpuOnce) {
  MockLinuxBackend b;
  const Machine& m = b.topology();
  b.fake_sysfs().clear_writes();

  // Offline the whole big cluster (dense cores 4-7 = cpus 4-7).
  b.set_online_mask(m.slowest_mask());

  const auto& w = b.fake_sysfs().writes();
  ASSERT_EQ(w.size(), 4u);
  for (int cpu = 4; cpu <= 7; ++cpu) {
    EXPECT_EQ(w[static_cast<std::size_t>(cpu - 4)].path, cpu_online(cpu));
    EXPECT_EQ(w[static_cast<std::size_t>(cpu - 4)].value, "0");
  }
  EXPECT_EQ(m.online_mask(), m.slowest_mask());

  // Re-onlining writes "1" to exactly the same cpus.
  b.fake_sysfs().clear_writes();
  b.set_online_mask(m.all_mask());
  ASSERT_EQ(b.fake_sysfs().writes().size(), 4u);
  for (const SysfsWrite& write : b.fake_sysfs().writes()) {
    EXPECT_EQ(write.value, "1");
  }
}

TEST(MockLinuxHotplug, HotplugIsDiffAwareAgainstTheMirror) {
  MockLinuxBackend b;
  const Machine& m = b.topology();
  b.set_online_mask(m.slowest_mask());
  b.fake_sysfs().clear_writes();

  // Same desired mask again: nothing to toggle, nothing written.
  b.set_online_mask(m.slowest_mask());
  EXPECT_TRUE(b.fake_sysfs().writes().empty());
}

TEST(MockLinuxHotplug, BootCpuWithoutOnlineFileStaysOnline) {
  MockLinuxBackend b;
  b.fake_sysfs().clear_writes();

  b.set_online_mask(CpuMask());
  // cpu0 has no online knob: it is skipped, every other cpu gets "0".
  EXPECT_EQ(b.fake_sysfs().writes().size(), 7u);
  for (const SysfsWrite& w : b.fake_sysfs().writes()) {
    EXPECT_NE(w.path, cpu_online(0));
    EXPECT_EQ(w.value, "0");
  }
  EXPECT_EQ(b.topology().online_mask(), CpuMask::single(0));
  b.set_online_mask(b.topology().all_mask());
}

TEST(MockLinuxPlacement, AffinityCallsCarryKernelCpuNumbers) {
  MockLinuxBackend b;
  WorkloadDesc desc;
  desc.label = "w";
  desc.threads = 2;
  const AppId app = b.add_workload(desc);
  b.fake_threads().clear_affinity_calls();

  b.place(app, 0, b.topology().fastest_mask());
  b.place(app, 1, b.topology().slowest_mask());

  const auto& calls = b.fake_threads().affinity_calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].app, app);
  EXPECT_EQ(calls[0].local_tid, 0);
  EXPECT_EQ(calls[0].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(calls[1].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MockLinuxPlacement, PlacedThreadsLandInsideTheMask) {
  MockLinuxBackend b;
  WorkloadDesc desc;
  desc.label = "w";
  desc.threads = 4;
  const AppId app = b.add_workload(desc);

  b.place_app(app, b.topology().fastest_mask());
  b.run_for(200 * kUsPerMs);

  for (int t = 0; t < 4; ++t) {
    const CoreId core = b.thread_core(app, t);
    ASSERT_GE(core, 0);
    EXPECT_TRUE(b.topology().fastest_mask().test(core));
  }
}

TEST(MockLinuxDryRun, NeverWritesNeverPlaces) {
  LinuxBackendConfig config = MockLinuxBackend::mock_config();
  config.dry_run = true;
  MockLinuxBackend b(FakeSysfs::exynos5422(), config);
  WorkloadDesc desc;
  desc.label = "w";
  const AppId app = b.add_workload(desc);
  b.fake_sysfs().clear_writes();
  b.fake_threads().clear_affinity_calls();

  b.set_dvfs_level(0, 2);
  b.set_online_mask(b.topology().slowest_mask());
  b.place(app, 0, b.topology().slowest_mask());

  EXPECT_TRUE(b.fake_sysfs().writes().empty());
  EXPECT_TRUE(b.fake_threads().affinity_calls().empty());
  // The mirror still tracks intent, so control flow is exercisable.
  EXPECT_EQ(b.dvfs_level(0), 2);
}

TEST(MockLinuxWorkload, HeartbeatsTrackDvfs) {
  MockLinuxBackend b;
  WorkloadDesc desc;
  desc.label = "w";
  desc.threads = 4;
  // Work accrues at core_speed (ipc x GHz) units per second; even the
  // 0.2 GHz floor yields a few beats per second at this grain.
  desc.work_per_beat = 0.05;
  const AppId app = b.add_workload(desc);

  // A slow second, then a fast second: the beat rate must rise.
  const ClusterId big = b.topology().fastest_cluster();
  const ClusterId little = b.topology().slowest_cluster();
  b.set_dvfs_level(big, 0);
  b.set_dvfs_level(little, 0);
  b.run_for(kUsPerSec);
  const std::int64_t slow = b.heartbeats(app).count();

  b.set_dvfs_level(big, 9);
  b.set_dvfs_level(little, 6);
  b.run_for(kUsPerSec);
  const std::int64_t fast = b.heartbeats(app).count() - slow;

  EXPECT_GT(slow, 0);
  EXPECT_GT(fast, slow);
}

TEST(MockLinuxEnergy, PowercapCounterFeedsTheRealReadPath) {
  MockLinuxBackend b;
  EXPECT_TRUE(b.caps().energy);
  WorkloadDesc desc;
  desc.label = "w";
  const AppId app = b.add_workload(desc);
  (void)app;

  const double e0 = b.energy_j();
  b.run_for(kUsPerSec);
  const double e1 = b.energy_j();
  EXPECT_GT(e1, e0);  // Modeled power integrated through the meter file.
}

TEST(MockLinuxEnergy, MeterWrapIsAccumulatedNotLost) {
  MockLinuxBackend b;
  const double e0 = b.energy_j();
  // Wind the counter near its range, then wrap it past zero.
  b.fake_sysfs().set("sys/class/powercap/energy-meter/energy_uj",
                     "999999999000");
  const double e1 = b.energy_j();
  EXPECT_GT(e1, e0);
  b.fake_sysfs().set("sys/class/powercap/energy-meter/energy_uj", "500000");
  const double e2 = b.energy_j();
  // 1e12 range: the wrap contributes (range - last) + cur, never negative.
  EXPECT_GT(e2, e1);
}

}  // namespace
}  // namespace hars
