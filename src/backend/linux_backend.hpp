// LinuxBackend: the Backend over a Linux sysfs tree.
//
// The paper's deployment target: a userspace daemon (tools/hars_agentd)
// driving cpufreq, sched_setaffinity, cpu hotplug and an energy meter on
// real big.LITTLE silicon. Every kernel interaction goes through two
// seams so the same class is CI-testable:
//   * SysfsIo   — cpufreq / hotplug / energy / stat files
//                 (RealSysfs on hardware, FakeSysfs in tests),
//   * ThreadOps — workload threads + affinity + per-thread counters
//                 (RealThreadOps spawns spinning threads and calls
//                 sched_setaffinity; FakeThreadOps models placement with
//                 the GTS scheduler model).
// Capabilities are probed, never assumed: a tree without cpufreq still
// runs (caps().dvfs = false, writes only move the mirror), which is what
// `hars_agentd --dry-run` relies on to probe arbitrary machines
// read-only.
//
// Topology mirror: the probed PlatformSpec materializes a dense Machine
// (cluster 0 core 0, ...) that tracks every accepted DVFS/hotplug write,
// while ProbedTopology keeps the kernel's actual cpu numbers for
// actuation. Managers read the mirror (topology()); the kernel sees
// translated cpu ids.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/sysfs.hpp"
#include "backend/sysfs_probe.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/power_model.hpp"

namespace hars {

/// Wall-clock TimeSource: steady_clock microseconds since construction.
class WallTimeSource final : public TimeSource {
 public:
  WallTimeSource();
  TimeUs now_us() override;
  void sleep_until(TimeUs t) override;

 private:
  std::int64_t epoch_ns_;
};

/// Workload execution + thread placement seam (the non-sysfs half of the
/// Linux syscall surface). One "work unit" is the currency heartbeats
/// are derived from: beats = total work / WorkloadDesc::work_per_beat.
class ThreadOps {
 public:
  virtual ~ThreadOps() = default;

  /// Called once by LinuxBackend before any other method: the dense
  /// topology mirror and the dense-core -> kernel-cpu map. Both outlive
  /// this object.
  virtual void attach(const Machine* mirror,
                      const std::vector<int>* core_to_cpu) {
    mirror_ = mirror;
    core_to_cpu_ = core_to_cpu;
  }

  /// Starts the workload's threads; returns the count actually started.
  virtual int spawn(AppId app, const WorkloadDesc& desc) = 0;
  /// Binds one thread to a set of kernel cpu numbers.
  virtual void set_affinity(AppId app, int local_tid,
                            const std::vector<int>& cpus) = 0;
  /// Kernel cpu the thread last ran on; -1 when unknown.
  virtual int current_cpu(AppId app, int local_tid) const = 0;
  /// CPU time the thread has consumed (us).
  virtual TimeUs cpu_time_us(AppId app, int local_tid) const = 0;
  /// Cumulative work units the thread has completed.
  virtual double work_done(AppId app, int local_tid) const = 0;
  /// Can placement reach a real scheduler? (caps().placement)
  virtual bool can_place() const = 0;

  /// Modeled implementations advance execution to `now` here; real
  /// threads run in real time, so the default is a no-op.
  virtual void advance_to(TimeUs now) { (void)now; }
  /// The online kernel-cpu set changed (hotplug): migrate off offlined
  /// cpus where the implementation models placement.
  virtual void on_topology_change() {}
  virtual void stop_all() {}

 protected:
  const Machine* mirror_ = nullptr;
  const std::vector<int>* core_to_cpu_ = nullptr;
};

/// Real threads: spinning workers (one work unit = 1M spin iterations,
/// roughly a millisecond of work on current cores — size work_per_beat
/// accordingly), sched_setaffinity placement, /proc/self/task counters.
/// On non-Linux builds spawn() throws and can_place() is false.
class RealThreadOps final : public ThreadOps {
 public:
  RealThreadOps();
  ~RealThreadOps() override;

  int spawn(AppId app, const WorkloadDesc& desc) override;
  void set_affinity(AppId app, int local_tid,
                    const std::vector<int>& cpus) override;
  int current_cpu(AppId app, int local_tid) const override;
  TimeUs cpu_time_us(AppId app, int local_tid) const override;
  double work_done(AppId app, int local_tid) const override;
  bool can_place() const override;
  void stop_all() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct LinuxBackendConfig {
  /// Manager epoch; the paper's deployment uses 100 ms.
  TimeUs tick_us = 100 * kUsPerMs;
  /// Probe-only mode: no sysfs write and no affinity call ever happens;
  /// actuation still updates the mirror so control flow is exercised.
  bool dry_run = false;
  /// Platform carrying real power parameters for the modeled-energy
  /// fallback and profiling model; when unset the probed topology gets
  /// per-core-type defaults (PlatformSpec::from_sysfs).
  std::optional<PlatformSpec> platform;
  bool audit = false;
  std::string name = "linux";
};

class LinuxBackend : public Backend {
 public:
  LinuxBackend(std::unique_ptr<SysfsIo> sysfs,
               std::unique_ptr<ThreadOps> threads,
               std::unique_ptr<TimeSource> time, LinuxBackendConfig config);
  ~LinuxBackend() override;

  const char* name() const override { return config_.name.c_str(); }
  BackendCaps caps() const override { return caps_; }
  const Machine& topology() const override { return machine_; }

  /// Lifetime busy fraction as of the last tick: proc/stat is parsed
  /// once per tick (sample_counters), not per call.
  double core_busy_fraction(CoreId core) const override;
  TimeUs elapsed_work_us(AppId app, int local_tid) const override {
    return threads_->cpu_time_us(app, local_tid);
  }
  double energy_j() const override;

  int num_apps() const override { return static_cast<int>(workloads_.size()); }
  bool app_alive(AppId app) const override {
    return app >= 0 && app < num_apps() &&
           workloads_[static_cast<std::size_t>(app)].alive;
  }
  int thread_count(AppId app) const override {
    return workloads_[static_cast<std::size_t>(app)].desc.threads;
  }
  std::vector<int> thread_group_sizes(AppId app) const override;
  HeartbeatMonitor& heartbeats(AppId app) override {
    return workloads_[static_cast<std::size_t>(app)].monitor;
  }
  AppId add_workload(const WorkloadDesc& desc) override;

  void set_dvfs_level(ClusterId cluster, int level) override;
  void place(AppId app, int local_tid, CpuMask mask) override;
  CoreId thread_core(AppId app, int local_tid) const override;
  void set_online_mask(CpuMask mask) override;

  TimeSource& time() override { return *time_; }
  void attach_manager(ManagerHook* manager) override { manager_ = manager; }
  void run_until(TimeUs t) override;

  const PowerModel& profiling_model() const override { return power_model_; }
  bool audit_enabled() const override { return config_.audit; }
  double manager_cpu_utilization_pct() const override;

  /// The probed platform (fixture or live machine) and cpu numbering.
  const PlatformSpec& platform() const { return spec_; }
  const ProbedTopology& probed() const { return topo_; }
  /// Dense core id for a kernel cpu number (-1 when not present).
  CoreId core_of_cpu(int cpu) const;

 protected:
  /// One live tick, at time `now`: advance/sample counters, pump
  /// heartbeats, then invoke the manager. sample_counters() is the
  /// subclass seam (MockLinuxBackend models busy/energy there).
  /// backend.tick_ns is observed only while telemetry is armed.
  void tick(TimeUs now);
  virtual void sample_counters(TimeUs now);

  SysfsIo& sysfs() { return *sysfs_; }
  ThreadOps& thread_ops() { return *threads_; }
  const LinuxBackendConfig& config() const { return config_; }
  Machine& mirror() { return machine_; }

 private:
  struct Workload {
    WorkloadDesc desc;
    HeartbeatMonitor monitor;
    bool alive = true;
    std::int64_t beats_emitted = 0;
  };

  std::string policy_dir(ClusterId cluster) const;
  /// Parses proc/stat in one pass into core_stats_. Cpus the file does
  /// not list (offline cpus drop out) keep their last values. With
  /// `baseline` the sample also starts the lifetime window; otherwise
  /// listed cores get their tick_busy_ from the delta. Returns the
  /// number of per-cpu lines read (0 when the file is missing).
  int sample_proc_stat(bool baseline);
  void probe_caps();
  void probe_energy_meters();
  void sync_mirror_from_sysfs();
  /// Accumulates meter deltas (wrap-aware) into energy_accum_uj_.
  void poll_energy_meters() const;

  std::unique_ptr<SysfsIo> sysfs_;
  std::unique_ptr<ThreadOps> threads_;
  std::unique_ptr<TimeSource> time_;
  LinuxBackendConfig config_;

  ProbedTopology topo_;
  PlatformSpec spec_;
  Machine machine_;  ///< Dense mirror of probed topology + accepted writes.
  PowerModel power_model_;
  std::vector<int> core_to_cpu_;  ///< Dense core -> kernel cpu.
  BackendCaps caps_;

  std::vector<Workload> workloads_;
  ManagerHook* manager_ = nullptr;
  TimeUs next_tick_ = 0;
  std::int64_t manager_ns_ = 0;

  /// Userspace governor installed (once per cluster, lazily).
  std::vector<char> governor_set_;

  /// Energy meters (powercap-shaped nodes with energy_uj); mutable so
  /// energy_j() can poll for wraps.
  struct EnergyMeter {
    std::string path;             ///< .../energy_uj
    long long range_uj = 0;       ///< max_energy_range_uj (0 = no wrap info)
    mutable long long last_uj = 0;
  };
  std::vector<EnergyMeter> meters_;
  mutable double energy_accum_uj_ = 0.0;
  /// Modeled fallback (no meter): integrated from the mirror + power
  /// model each tick using proc/stat busy deltas.
  double modeled_energy_j_ = 0.0;
  TimeUs last_sample_us_ = 0;

  /// proc/stat sums (USER_HZ) per dense core: the baseline from
  /// construction and the last sample that listed the cpu.
  struct CoreStat {
    double busy0 = 0.0, total0 = 0.0;
    double busy = 0.0, total = 0.0;
  };
  std::vector<CoreStat> core_stats_;
  /// Busy fraction over the last tick, per dense core (modeled fallback
  /// input; refreshed in sample_counters).
  std::vector<double> tick_busy_;
};

}  // namespace hars
