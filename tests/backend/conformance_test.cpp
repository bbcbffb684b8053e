// Backend conformance: the contracts every Backend must honor, run over
// all three implementations — SimBackend (over a SimEngine), the
// CI-testable MockLinuxBackend, and LinuxBackend itself over a fixture
// tree (the same class hars_agentd ships against real sysfs).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "backend/backend.hpp"
#include "backend/linux_backend.hpp"
#include "backend/mock_linux_backend.hpp"
#include "backend/sim_backend.hpp"
#include "backend/sysfs.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

/// One backend under test plus whatever it needs kept alive.
struct Harness {
  std::unique_ptr<SimEngine> engine;  ///< sim only.
  std::unique_ptr<Backend> backend;
};

Harness make_harness(const std::string& kind) {
  Harness h;
  if (kind == "sim") {
    // The simulator runs the same topology the fixture describes, so the
    // conformance assertions are identical across backends.
    const Machine machine =
        PlatformSpec::from_sysfs(FakeSysfs::exynos5422()).make_machine();
    h.engine = std::make_unique<SimEngine>(PlatformSpec::from_machine(machine),
                                           std::make_unique<GtsScheduler>());
    h.backend = std::make_unique<SimBackend>(*h.engine);
  } else if (kind == "mock_linux") {
    h.backend = std::make_unique<MockLinuxBackend>();
  } else {
    // LinuxBackend proper, CI-safe over the fixture tree and modeled
    // threads (what --dry-run exercises minus the real filesystem).
    LinuxBackendConfig config;
    config.name = "linux";
    h.backend = std::make_unique<LinuxBackend>(
        std::make_unique<FakeSysfs>(FakeSysfs::exynos5422()),
        std::make_unique<FakeThreadOps>(), std::make_unique<FakeTimeSource>(),
        config);
  }
  return h;
}

class BackendConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendConformance, ReportsItsName) {
  const Harness h = make_harness(GetParam());
  EXPECT_EQ(h.backend->name(), GetParam());
}

TEST_P(BackendConformance, CapsMatchTheImplementation) {
  const Harness h = make_harness(GetParam());
  const BackendCaps caps = h.backend->caps();
  EXPECT_EQ(caps.simulated, GetParam() == "sim");
  // Every harness platform supports the full actuation surface.
  EXPECT_TRUE(caps.dvfs);
  EXPECT_TRUE(caps.placement);
  EXPECT_TRUE(caps.hotplug);
}

TEST_P(BackendConformance, TopologyIsExynosShaped) {
  const Harness h = make_harness(GetParam());
  const Machine& m = h.backend->topology();
  EXPECT_EQ(m.num_clusters(), 2);
  EXPECT_EQ(m.num_cores(), 8);
  EXPECT_EQ(m.online_mask().count(), 8);
  EXPECT_NE(m.fastest_cluster(), m.slowest_cluster());
  EXPECT_EQ(m.max_freq_level(m.fastest_cluster()), 9);   // 0.2-2.0 GHz.
  EXPECT_EQ(m.max_freq_level(m.slowest_cluster()), 6);   // 0.2-1.4 GHz.
}

TEST_P(BackendConformance, DvfsClampsLikeCpufreq) {
  Harness h = make_harness(GetParam());
  const Machine& m = h.backend->topology();
  const ClusterId big = m.fastest_cluster();
  const ClusterId little = m.slowest_cluster();

  h.backend->set_dvfs_level(big, 99);
  EXPECT_EQ(h.backend->dvfs_level(big), m.max_freq_level(big));
  EXPECT_DOUBLE_EQ(m.freq_ghz(big), 2.0);

  h.backend->set_dvfs_level(little, -5);
  EXPECT_EQ(h.backend->dvfs_level(little), 0);
  EXPECT_DOUBLE_EQ(m.freq_ghz(little), 0.2);

  h.backend->set_dvfs_level(little, 3);
  EXPECT_EQ(h.backend->dvfs_level(little), 3);
  EXPECT_DOUBLE_EQ(m.freq_ghz(little), 0.8);
}

TEST_P(BackendConformance, HotplugNeverOfflinesTheBootCore) {
  Harness h = make_harness(GetParam());
  const Machine& m = h.backend->topology();

  h.backend->set_online_mask(CpuMask());  // Ask for everything off.
  EXPECT_TRUE(m.online_mask().test(0));
  EXPECT_GE(m.online_mask().count(), 1);

  h.backend->set_online_mask(m.all_mask());
  EXPECT_EQ(m.online_mask().count(), 8);
}

TEST_P(BackendConformance, HotplugMaskReadsBackAsAccepted) {
  Harness h = make_harness(GetParam());
  const Machine& m = h.backend->topology();
  const CpuMask little_only = m.slowest_mask();

  h.backend->set_online_mask(little_only);
  EXPECT_EQ(m.online_mask(), little_only & m.all_mask());
  EXPECT_EQ((m.online_mask() & m.fastest_mask()).count(), 0);

  h.backend->set_online_mask(m.all_mask());
}

TEST_P(BackendConformance, TimeIsMonotoneUnderRunFor) {
  Harness h = make_harness(GetParam());
  const TimeUs t0 = h.backend->now();
  h.backend->run_for(kUsPerSec);
  const TimeUs t1 = h.backend->now();
  EXPECT_GE(t1, t0 + kUsPerSec);
  h.backend->run_for(kUsPerSec / 2);
  EXPECT_GE(h.backend->now(), t1);
}

TEST_P(BackendConformance, EnergyIsMonotone) {
  Harness h = make_harness(GetParam());
  const double e0 = h.backend->energy_j();
  h.backend->run_for(kUsPerSec);
  const double e1 = h.backend->energy_j();
  EXPECT_GE(e1, e0);
  h.backend->run_for(kUsPerSec);
  EXPECT_GE(h.backend->energy_j(), e1);
}

TEST_P(BackendConformance, ProfilingModelIsUsable) {
  const Harness h = make_harness(GetParam());
  std::vector<double> idle(8, 0.0);
  std::vector<double> busy(8, 1.0);
  const double p_idle = h.backend->profiling_model().total_power(idle);
  const double p_busy = h.backend->profiling_model().total_power(busy);
  EXPECT_GT(p_busy, p_idle);
}

TEST_P(BackendConformance, SimEngineEscapeHatchIsSimOnly) {
  Harness h = make_harness(GetParam());
  if (GetParam() == "sim") {
    EXPECT_NE(h.backend->sim_engine(), nullptr);
  } else {
    EXPECT_EQ(h.backend->sim_engine(), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values("sim", "mock_linux", "linux"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace hars
