// LinuxBackend's proc/stat path: the base class (not the mock, which
// models busy itself) over FakeSysfs, FakeThreadOps and a driven clock,
// with proc/stat samples injected between ticks. proc/stat is parsed
// once per tick; core_busy_fraction() reads that sample.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "backend/linux_backend.hpp"
#include "backend/mock_linux_backend.hpp"

namespace hars {
namespace {

constexpr TimeUs kTick = 100 * kUsPerMs;

/// A LinuxBackend over `fixture` whose proc/stat starts as `stat`; keeps
/// the FakeSysfs so tests can inject later samples.
struct Rig {
  FakeSysfs* sysfs = nullptr;
  std::unique_ptr<LinuxBackend> backend;

  Rig(FakeSysfs fixture, const std::string& stat) {
    fixture.set("proc/stat", stat);
    auto owned = std::make_unique<FakeSysfs>(std::move(fixture));
    sysfs = owned.get();
    LinuxBackendConfig config;
    config.tick_us = kTick;
    backend = std::make_unique<LinuxBackend>(
        std::move(owned), std::make_unique<FakeThreadOps>(),
        std::make_unique<FakeTimeSource>(), config);
  }

  /// Installs the next proc/stat sample and runs one tick over it.
  void tick(const std::string& stat) {
    sysfs->set("proc/stat", stat);
    backend->run_for(kTick);
  }
};

/// The aggregate line plus eight cpu lines (USER_HZ: user nice system
/// idle iowait) of 100 idle jiffies each; each of `lines` replaces the
/// line of its cpu.
std::string idle_stat(const std::vector<std::string>& lines = {}) {
  std::string stat = "cpu  0 0 0 800 0\n";
  for (int cpu = 0; cpu < 8; ++cpu) {
    const std::string label = "cpu" + std::to_string(cpu);
    std::string line = label + " 0 0 0 100 0";
    for (const std::string& l : lines) {
      if (l.compare(0, l.find(' '), label) == 0) line = l;
    }
    stat += line + "\n";
  }
  return stat;
}

FakeSysfs without_powercap() {
  FakeSysfs fixture = FakeSysfs::exynos5422();
  for (const char* node : {"name", "energy_uj", "max_energy_range_uj"}) {
    fixture.remove(std::string("sys/class/powercap/energy-meter/") + node);
  }
  return fixture;
}

TEST(LinuxBackendProcStat, AggregateCpuLineIsIgnored) {
  // Only the all-cpu aggregate: no per-cpu counters to report.
  const Rig aggregate_only(FakeSysfs::exynos5422(), "cpu  5 0 0 5 0\n");
  EXPECT_FALSE(aggregate_only.backend->caps().core_stats);

  Rig rig(FakeSysfs::exynos5422(), "cpu  0 0 0 0 0\ncpu0 0 0 0 0 0\n");
  EXPECT_TRUE(rig.backend->caps().core_stats);
  // A busy aggregate line must not leak into any core.
  rig.tick("cpu  900 0 0 100 0\ncpu0 25 0 0 75 0\n");
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(0), 0.25);
  for (CoreId c = 1; c < 8; ++c) {
    EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(c), 0.0) << c;
  }
}

TEST(LinuxBackendProcStat, BusyIsTotalMinusIdleAndIowait) {
  Rig rig(FakeSysfs::exynos5422(), idle_stat());
  // user nice system idle iowait irq: of the 200 new jiffies, user +
  // nice + system + irq = 100 are busy; idle and iowait are not.
  rig.tick(idle_stat({"cpu5 10 20 30 160 40 40"}));
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(5), 100.0 / 200.0);
}

TEST(LinuxBackendProcStat, BusyFractionIsTheLastTicksSample) {
  Rig rig(FakeSysfs::exynos5422(), idle_stat());
  rig.tick(idle_stat({"cpu2 50 0 0 150 0"}));
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(2), 50.0 / 100.0);
  // A sample written after the tick is not read until the next one.
  rig.sysfs->set("proc/stat", idle_stat({"cpu2 150 0 0 150 0"}));
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(2), 50.0 / 100.0);
  rig.backend->run_for(kTick);
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(2), 150.0 / 200.0);
}

TEST(LinuxBackendProcStat, OfflineCpuKeepsItsLastValues) {
  Rig rig(without_powercap(), idle_stat());
  rig.tick(idle_stat({"cpu3 50 0 0 150 0"}));
  ASSERT_DOUBLE_EQ(rig.backend->core_busy_fraction(3), 0.5);

  // cpu3 goes offline: its line leaves proc/stat.
  std::string without_cpu3;
  for (int cpu = 0; cpu < 8; ++cpu) {
    if (cpu == 3) continue;
    without_cpu3 += "cpu" + std::to_string(cpu) + " 0 0 0 100 0\n";
  }
  rig.tick(without_cpu3);
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(3), 0.5);
  const double e2 = rig.backend->energy_j();

  // Back online: its tick delta runs from the values it last reported
  // (100 busy of 100 new jiffies), not from the baseline.
  rig.tick(idle_stat({"cpu3 150 0 0 150 0"}));
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(3), 150.0 / 200.0);
  std::vector<double> busy(8, 0.0);
  busy[3] = 1.0;
  EXPECT_NEAR(rig.backend->energy_j() - e2,
              rig.backend->profiling_model().total_power(busy) * 0.1, 1e-12);
}

TEST(LinuxBackendProcStat, ShortLinesSumTheFieldsTheyHave) {
  Rig rig(FakeSysfs::exynos5422(), "cpu0 0\ncpu1 0 0 0 0\ncpu2\n");
  EXPECT_TRUE(rig.backend->caps().core_stats);
  rig.tick("cpu0 30 10\ncpu1 10 0 0 30\ncpu2\n");
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(0), 1.0);   // No idle field.
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(1), 0.25);  // Idle only.
  EXPECT_DOUBLE_EQ(rig.backend->core_busy_fraction(2), 0.0);   // No fields.
}

TEST(LinuxBackendProcStat, ModeledEnergyIntegratesParsedBusy) {
  Rig rig(without_powercap(), idle_stat());
  ASSERT_FALSE(rig.backend->caps().energy);
  const PowerModel& model = rig.backend->profiling_model();
  std::vector<double> busy(8, 0.0);

  // cpu4 fully busy, cpu6 half busy over one 100 ms tick.
  rig.tick(idle_stat({"cpu4 100 0 0 100 0", "cpu6 50 0 0 150 0"}));
  busy[4] = 1.0;
  busy[6] = 0.5;
  const double e1 = rig.backend->energy_j();
  EXPECT_DOUBLE_EQ(e1, model.total_power(busy) * 0.1);

  // Next tick, deltas against that sample: cpu4 idles, cpu6 saturates.
  rig.tick(idle_stat({"cpu4 100 0 0 200 0", "cpu6 150 0 0 150 0"}));
  busy[4] = 0.0;
  busy[6] = 1.0;
  EXPECT_NEAR(rig.backend->energy_j() - e1, model.total_power(busy) * 0.1,
              1e-12);
}

}  // namespace
}  // namespace hars
