// Backend: the hardware-abstraction boundary under the runtime managers.
//
// The paper's HARS daemon manages real big.LITTLE silicon through a small
// "syscall surface": read per-core load and per-thread elapsed work, set
// per-cluster DVFS levels (cpufreq), place/affine threads
// (sched_setaffinity), toggle cores on/offline (cpu hotplug) and read
// energy (INA231 / RAPL). This interface is exactly that surface — no
// more — so the same managers (RuntimeManager, MpHarsManager,
// ConsIManager) drive either the discrete-time simulator or real
// hardware:
//
//   * SimBackend    — stateless forwarder over SimEngine. The default
//                     behind ExperimentBuilder::backend("sim"); keeps the
//                     simulated path bit-identical to pre-HAL builds.
//   * MockLinuxBackend — a Linux backend over a fixture sysfs tree
//                     (FakeSysfs) with modeled threads and injectable
//                     counter streams; every sysfs write and affinity
//                     call is recorded, so CI asserts exact sequences.
//   * LinuxBackend  — the real thing: cpufreq sysfs writes,
//                     sched_setaffinity, /sys/.../online hotplug, RAPL
//                     energy, graceful capability probing. Shipped as the
//                     tools/hars_agentd daemon.
//
// Topology is exposed as a `Machine` mirror: for the simulator it IS the
// simulated machine; live backends keep a probed mirror in sync with the
// writes they issue, so manager-side reads (freq_level, online_mask,
// masks) cost no syscalls. Time comes from a TimeSource so tick loops run
// on simulated or wall-clock time with the same code.
#pragma once

#include <limits>
#include <vector>

#include "heartbeats/heartbeat.hpp"
#include "hmp/cpu_mask.hpp"
#include "hmp/machine.hpp"
#include "util/common.hpp"

namespace hars {

class PowerModel;  // hmp/power_model.hpp
class SimEngine;   // hmp/sim_engine.hpp

/// Runtime managers (HARS, MP-HARS, CONS-I) attach to a backend through
/// this hook. `on_tick` returns the CPU time (us) the manager consumed so
/// the simulator can charge it as overhead (live backends pay it for
/// real and ignore the return value).
class ManagerHook {
 public:
  /// next_due() answer of a manager that never acts again.
  static constexpr TimeUs kNeverDue = std::numeric_limits<TimeUs>::max();

  virtual ~ManagerHook() = default;
  virtual TimeUs on_tick(TimeUs now) = 0;

  /// The earliest tick time at which on_tick may do anything: on a tick
  /// before it, on_tick must return 0 and change nothing, so a quiet span
  /// skips the call. The answer may change only inside on_tick and
  /// skip_idle_polls. The default, 0, means always due, so a wrapper that
  /// overrides only on_tick sees every call.
  virtual TimeUs next_due() const { return 0; }

  /// True when a due on_tick that finds no heartbeat newer than the ones
  /// its last call saw does nothing but move next_due() to now + `period`
  /// and return `cost`; it then fills both. A quiet span emits no
  /// heartbeat, so after its first real call it charges such idle polls
  /// itself, without calling on_tick. The default answers false, so a
  /// wrapper sees every call.
  virtual bool idle_poll(TimeUs& period, TimeUs& cost) const {
    (void)period;
    (void)cost;
    return false;
  }

  /// Records the idle polls a quiet span charged in place of on_tick:
  /// next_due() becomes `due`. Called only after idle_poll() held.
  virtual void skip_idle_polls(TimeUs due) { (void)due; }
};

/// The poll clock of the three runtime managers. HARS (Algorithm 1),
/// MP-HARS (Algorithm 3) and CONS-I are each one user-level loop that
/// polls the heartbeat channel every kPollPeriodUs and pays kPollCostUs
/// per poll (the overhead model, docs/ARCHITECTURE.md). A due on_tick
/// moves the clock, charges the poll cost and runs the manager's poll();
/// a poll that finds no new heartbeat must do nothing else, which is
/// what lets a quiet span charge it inline (idle_poll).
class PollingManager : public ManagerHook {
 public:
  static constexpr TimeUs kPollPeriodUs = 5 * kUsPerMs;
  static constexpr TimeUs kPollCostUs = 60;

  TimeUs on_tick(TimeUs now) final {
    if (now < next_poll_) return 0;
    next_poll_ = now + kPollPeriodUs;
    return kPollCostUs + poll();
  }
  TimeUs next_due() const final { return next_poll_; }
  bool idle_poll(TimeUs& period, TimeUs& cost) const final {
    period = kPollPeriodUs;
    cost = kPollCostUs;
    return true;
  }
  void skip_idle_polls(TimeUs due) final { next_poll_ = due; }

 protected:
  /// One due poll's work after the clock moved; returns its CPU cost
  /// beyond kPollCostUs.
  virtual TimeUs poll() = 0;

 private:
  TimeUs next_poll_ = 0;
};

/// What a backend can actually do on its platform; probed at
/// construction for live backends (a server without cpufreq still runs,
/// it just reports dvfs = false and set_dvfs_level only moves the
/// mirror).
struct BackendCaps {
  bool dvfs = false;       ///< Per-cluster frequency writes reach hardware.
  bool placement = false;  ///< place() reaches sched_setaffinity.
  bool hotplug = false;    ///< set_online_mask() reaches /sys .../online.
  bool energy = false;     ///< energy_j() reads a real meter (else modeled).
  bool core_stats = false; ///< core_busy_fraction() reads real counters.
  bool simulated = false;  ///< Time and execution are simulated.
};

/// Tick clock: simulated backends advance it inside run_until;
/// wall-clock backends sleep on it.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  /// Monotonic microseconds since the backend's epoch (t = 0 at start).
  virtual TimeUs now_us() = 0;
  /// Blocks until now_us() >= t (no-op where time is driven, i.e. sim).
  virtual void sleep_until(TimeUs t) = 0;
};

/// Workload registration for live backends: the backend executes the
/// workload natively (mock: modeled threads; linux: real spinning
/// threads) and feeds its heartbeat monitor. Simulated apps do not go
/// through this — they are App objects added to the SimEngine.
struct WorkloadDesc {
  std::string label;
  int threads = 4;
  /// Pipeline-stage sizes for the hierarchical scheduler; empty means one
  /// group of `threads`.
  std::vector<int> group_sizes;
  /// Work units per heartbeat (live backends emit a beat whenever the
  /// workload completes this much work; work accrues at core_speed).
  double work_per_beat = 1.0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;
  virtual BackendCaps caps() const = 0;

  /// The machine mirror: topology plus the current DVFS/online state as
  /// of the last accepted set_* call (probed ground truth at startup for
  /// live backends). Reference stays valid for the backend's lifetime.
  virtual const Machine& topology() const = 0;

  // --- Observation ---
  /// Lifetime busy fraction of one core (busy time / elapsed).
  virtual double core_busy_fraction(CoreId core) const = 0;
  /// CPU time one thread has consumed so far (us).
  virtual TimeUs elapsed_work_us(AppId app, int local_tid) const = 0;
  /// Cumulative energy since the backend's epoch (J).
  virtual double energy_j() const = 0;

  // --- Managed applications ---
  /// Number of app slots ever registered (removed apps keep their slot).
  virtual int num_apps() const = 0;
  virtual bool app_alive(AppId app) const = 0;
  virtual int thread_count(AppId app) const = 0;
  /// Pipeline-stage sizes (hierarchical scheduler); one group by default.
  virtual std::vector<int> thread_group_sizes(AppId app) const = 0;
  /// The app's heartbeat channel (managers read rate/window, install
  /// targets; live backends pump emissions into it each tick).
  virtual HeartbeatMonitor& heartbeats(AppId app) = 0;
  const HeartbeatMonitor& heartbeats(AppId app) const {
    return const_cast<Backend*>(this)->heartbeats(app);
  }
  /// Registers a backend-executed workload (live backends only; the
  /// default throws std::logic_error pointing at the SimEngine path).
  virtual AppId add_workload(const WorkloadDesc& desc);

  // --- Actuation ---
  /// Sets a cluster's DVFS level, clamped to [0, max_freq_level] exactly
  /// like Machine::set_freq_level (cpufreq clamps out-of-range
  /// frequencies the same way).
  virtual void set_dvfs_level(ClusterId cluster, int level) = 0;
  virtual int dvfs_level(ClusterId cluster) const {
    return topology().freq_level(cluster);
  }
  /// sched_setaffinity for one thread of one app.
  virtual void place(AppId app, int local_tid, CpuMask mask) = 0;
  /// Applies `mask` to every thread of the app (cluster-level pinning).
  virtual void place_app(AppId app, CpuMask mask);
  /// Core the thread currently runs on (-1 while unplaced/unknown).
  virtual CoreId thread_core(AppId app, int local_tid) const = 0;
  /// Hotplug: the desired online set. Cores the platform cannot offline
  /// (the boot core; cores without an `online` file) stay online — the
  /// accepted mask is readable back via topology().online_mask().
  virtual void set_online_mask(CpuMask mask) = 0;

  // --- Tick loop ---
  virtual TimeSource& time() = 0;
  TimeUs now() { return time().now_us(); }
  /// Installs (or, with nullptr, detaches) the manager driven by
  /// run_until. The caller keeps it alive.
  virtual void attach_manager(ManagerHook* manager) = 0;
  /// Advances to absolute time `t`, driving the per-tick lifecycle
  /// (observe -> manager -> actuate for live backends; the full 6+1-step
  /// simulation for SimBackend).
  virtual void run_until(TimeUs t) = 0;
  void run_for(TimeUs dt) { run_until(now() + dt); }

  // --- Estimator support ---
  /// Power model the profiling campaign (profile_power) trains the power
  /// estimator against: the simulator's ground-truth model, or a
  /// platform-parameter model of the probed topology for live backends.
  virtual const PowerModel& profiling_model() const = 0;

  /// Whether managers should run their (expensive) result audits.
  virtual bool audit_enabled() const { return false; }

  /// Wall-clock CPU share the manager consumed, as a percentage of one
  /// core (the simulator charges modeled costs; live backends measure).
  virtual double manager_cpu_utilization_pct() const { return 0.0; }

  /// Escape hatch for sim-only features (offline oracles, bit-identity
  /// suites). Null for every non-simulated backend.
  virtual SimEngine* sim_engine() { return nullptr; }
};

}  // namespace hars
