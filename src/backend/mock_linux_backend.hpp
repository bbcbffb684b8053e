// MockLinuxBackend: LinuxBackend over a fixture sysfs tree.
//
// The CI stand-in for real hardware: the exact LinuxBackend control flow
// (cpufreq writes, hotplug writes, capability probing, heartbeat
// pumping) runs against FakeSysfs — every sysfs write lands in a log the
// conformance suite asserts against — while FakeThreadOps models the
// kernel side of placement with the same GTS scheduler model the
// simulator uses: affinity calls are honored, threads collect on the
// cores GTS would pick, work accrues at the mirror machine's core speed
// (so heartbeat rates respond to DVFS and placement like a real
// CPU-bound workload). FakeTimeSource makes ticks instantaneous and
// deterministic, so whole variant runs execute in microseconds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/linux_backend.hpp"
#include "sched/gts.hpp"

namespace hars {

/// Deterministic driven clock: sleep_until is what advances it.
class FakeTimeSource final : public TimeSource {
 public:
  TimeUs now_us() override { return now_; }
  void sleep_until(TimeUs t) override { now_ = std::max(now_, t); }

 private:
  TimeUs now_ = 0;
};

/// One recorded affinity call (kernel cpu numbers), in call order.
struct AffinityCall {
  AppId app = 0;
  int local_tid = 0;
  std::vector<int> cpus;
};

/// Models the kernel scheduler side: SimThread records placed by the GTS
/// model over the mirror machine; execution shares split per core and
/// accrue work at core_speed.
///
/// The tick is allocation-free once warm: GTS assigns `threads_` in
/// place, the per-core sharer counts are GTS's own runnable-per-core
/// table, the load decay is cached per advance length, and the per-core
/// arrays are sized once in attach().
class FakeThreadOps final : public ThreadOps {
 public:
  FakeThreadOps() = default;

  void attach(const Machine* mirror,
              const std::vector<int>* core_to_cpu) override;
  int spawn(AppId app, const WorkloadDesc& desc) override;
  void set_affinity(AppId app, int local_tid,
                    const std::vector<int>& cpus) override;
  int current_cpu(AppId app, int local_tid) const override;
  TimeUs cpu_time_us(AppId app, int local_tid) const override;
  double work_done(AppId app, int local_tid) const override;
  bool can_place() const override { return true; }
  void advance_to(TimeUs now) override;
  void on_topology_change() override;

  const std::vector<AffinityCall>& affinity_calls() const { return calls_; }
  void clear_affinity_calls() { calls_.clear(); }

  /// Modeled lifetime busy time of one dense core (us).
  double core_busy_us(CoreId core) const;
  /// Busy fraction per dense core over the last advance_to interval; one
  /// entry per mirror core.
  const std::vector<double>& tick_busy() const { return tick_busy_; }

 private:
  /// threads_ index of one app's thread.
  std::size_t index_of(AppId app, int local_tid) const {
    return static_cast<std::size_t>(
        app_base_.at(static_cast<std::size_t>(app)) + local_tid);
  }
  /// Re-places all threads through the GTS model (affinity change,
  /// hotplug, or the per-advance schedule).
  void reschedule();

  GtsScheduler gts_;
  /// Every spawned thread in spawn order: what GTS places, with the load
  /// and cpu-time trackers riding along.
  std::vector<SimThread> threads_;
  std::vector<double> work_;   ///< Cumulative work units, per threads_ entry.
  std::vector<int> app_base_;  ///< threads_ index of each app's thread 0.
  std::vector<AffinityCall> calls_;
  std::vector<double> core_busy_us_;
  std::vector<double> tick_busy_;
  TimeUs last_advance_ = 0;
  ThreadId next_id_ = 0;
  TimeUs decay_dt_ = 0;  ///< Advance length decay_ was computed for.
  double decay_ = 1.0;
};

class MockLinuxBackend : public LinuxBackend {
 public:
  /// Runs over `fixture` (default: the exynos5422 tree). The fixture must
  /// describe at least one cpu.
  explicit MockLinuxBackend(FakeSysfs fixture = FakeSysfs::exynos5422(),
                            LinuxBackendConfig config = mock_config());

  /// The LinuxBackendConfig defaults for mock runs: name "mock_linux",
  /// the paper's 100 ms tick.
  static LinuxBackendConfig mock_config();

  /// The fixture tree: inject counter streams with set(), assert the
  /// write log with writes().
  FakeSysfs& fake_sysfs() { return *fake_sysfs_; }
  /// The modeled kernel: assert affinity sequences, read modeled busy.
  FakeThreadOps& fake_threads() { return *fake_threads_; }
  FakeTimeSource& fake_time() { return *fake_time_; }

  double core_busy_fraction(CoreId core) const override;

 protected:
  /// Busy comes from the thread model, energy from the profiling model
  /// integrated over it — pushed into the fixture's powercap counter so
  /// the read path (and its wrap handling) is the real one. The counter's
  /// path and range are resolved once, at construction.
  void sample_counters(TimeUs now) override;

 private:
  MockLinuxBackend(std::unique_ptr<FakeSysfs> sysfs,
                   std::unique_ptr<FakeThreadOps> threads,
                   std::unique_ptr<FakeTimeSource> time,
                   LinuxBackendConfig config);

  FakeSysfs* fake_sysfs_;
  FakeThreadOps* fake_threads_;
  FakeTimeSource* fake_time_;
  double energy_uj_ = 0.0;
  TimeUs last_energy_us_ = 0;
  /// The modeled board sensor: the first powercap domain's energy_uj
  /// (empty when the fixture has none) and its wrap range (0 = none).
  std::string meter_path_;
  double meter_range_uj_ = 0.0;
};

}  // namespace hars
