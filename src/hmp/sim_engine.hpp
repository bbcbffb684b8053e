// SimEngine: the discrete-time execution engine.
//
// Advances the machine in fixed ticks (default 1 ms). Each tick it:
//   0. fires the tick hook with the tick's start time (scenario event
//      dispatch: apps may be added/removed, targets/phases/hotplug may
//      change here, visible to the whole tick),
//   1. lets every application generate/prepare work (begin_tick),
//   2. asks the OS-scheduler model to place runnable threads on cores,
//   3. divides each core's tick equally among the threads on it and lets
//      the owning application consume the CPU shares,
//   4. runs application barrier/heartbeat logic (end_tick),
//   5. invokes the attached runtime manager (HARS / MP-HARS / CONS-I),
//      charging its reported CPU cost to the manager core (cpu0) so that
//      runtime overhead both consumes capacity and burns power,
//   6. integrates power and advances the sensor.
//
// After each step(), run_until() runs the *quiet* ticks that follow in one
// loop (run_quiet_span): ticks on which no thread finishes its share, no
// app admits work, the tick hook is not due and the scheduler's placement
// is a fixed point, so only arithmetic changes.
// The loop repeats step()'s accumulations in step()'s order from values
// planned once per span, so the simulation is bit-identical either way;
// see docs/ARCHITECTURE.md, "Quiet spans".
//
// The engine exposes the "syscall surface" the paper's user-level runtime
// uses on Linux: sched_setaffinity (set_thread_affinity), cpufreq
// (machine().set_freq_level) and hotplug (machine().set_online_mask).
#pragma once

#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "backend/backend.hpp"  // ManagerHook lives in the Backend HAL now.
#include "hmp/machine.hpp"
#include "hmp/power_model.hpp"
#include "hmp/power_sensor.hpp"
#include "sched/scheduler.hpp"
#include "util/audit.hpp"

namespace hars {

class SimEngine;

struct SimConfig {
  TimeUs tick_us = 1 * kUsPerMs;
  /// Per-tick invariant audits (audit_tick/audit_now): thread-table
  /// conservation across spawn/kill, snapshot coherence with the live
  /// machine, capacity/share ranges and bit-exact cluster busy-sum
  /// conservation. Defaults on when the build defines HARS_AUDIT (the CI
  /// sanitizer matrix does); a failed audit throws AuditError.
  bool audit = audit::default_enabled();
};

/// Reusable per-tick scratch owned by the engine. Pre-sized once for the
/// machine's core count (which never changes; hotplug only toggles the
/// online mask), so the steady-state tick path performs no allocations.
/// Lifetime of the contents is one tick: everything here is recomputed or
/// reused from scratch each step().
struct TickScratch {
  std::vector<TimeUs> core_capacity;   ///< Tick minus manager overhead.
  std::vector<int> threads_on_core;    ///< Runnable sharers per core.
  std::vector<TimeUs> core_share;      ///< capacity / sharers, per core.
  std::vector<CoreType> core_type;     ///< Immutable per-core type cache.
  std::vector<ClusterId> core_cluster; ///< Immutable core -> cluster map.
  std::vector<double> core_freq_ghz;   ///< Per-core DVFS snapshot.
  std::vector<double> cluster_busy;    ///< Per-cluster busy sum for the sensor.
  std::vector<double> cluster_freq;    ///< Per-cluster DVFS snapshot.
  std::vector<char> cluster_online;    ///< Any core of the cluster online?
  std::unique_ptr<bool[]> runnable;    ///< App::refresh_runnable buffer.
  std::size_t runnable_capacity = 0;   ///< Allocated size of `runnable`.
  std::uint64_t dvfs_epoch = 0;        ///< Machine epoch the snapshot is for.
  std::uint64_t online_bits = ~0ULL;   ///< Online mask the snapshot is for.
};

/// One planned capacity variant of a quiet span: a full tick, or a tick
/// whose manager core is charged `mgr_use` of manager overhead. Every
/// value is computed once with step()'s own expressions.
struct QuietVariant {
  TimeUs mgr_use = -1;                 ///< Charge planned for; -1: unplanned.
  std::vector<TimeUs> core_capacity;   ///< As TickScratch::core_capacity.
  std::vector<TimeUs> core_share;      ///< As TickScratch::core_share.
  std::vector<QuietLane> lanes;        ///< Per thread-table entry.
  std::vector<double> work;            ///< lanes[i].work, flat.
  std::vector<double> floor;           ///< lanes[i].floor, flat.
  std::vector<double> core_busy_us;    ///< Clamped busy fraction * tick.
  std::vector<double> cluster_busy;    ///< Per-cluster clamped busy sums.
  std::vector<double> cluster_watts;   ///< PowerSensor::cluster_watts.
  double total_watts = 0.0;            ///< Their sum plus the base draw.
  /// Ticks run with these lanes whose cpu time is not yet added to the
  /// thread table.
  std::int64_t unbilled_ticks = 0;
};

/// Scratch of the quiet-span loop, sized at span entry. The span keeps
/// each thread's load and remaining work in `load[k]` and `rem[k]`
/// (current and advanced, by turns) and writes them back to the thread
/// table and the apps before a manager call and at span end.
struct QuietScratch {
  std::vector<QuietGrant> grants;      ///< Per thread, for plan_quiet.
  std::vector<double> load[2];         ///< Span-local loads.
  std::vector<double> rem[2];          ///< Span-local remaining work.
  std::vector<double> load_add;        ///< LoadTracker::add_for per thread.
  std::vector<double> load_lo;         ///< Scheduler::load_bounds.
  std::vector<double> load_hi;
  QuietVariant variants[2];            ///< [0] full tick, [1] charged.
};

struct PlatformSpec;  // hmp/platform_spec.hpp

class SimEngine {
 public:
  /// Materializes the platform's machine and applies its per-cluster
  /// power parameters and base draw.
  SimEngine(const PlatformSpec& platform, std::unique_ptr<Scheduler> scheduler,
            SimConfig config = {});

  /// Registers an application (non-owning); returns its AppId. All of the
  /// app's threads start with affinity = all cores. Apps may be added
  /// mid-run (scenario arrivals); their threads join scheduling on the
  /// next tick.
  AppId add_app(App* app);

  /// Deregisters a departed application: its threads are reclaimed from
  /// the scheduler (erased from the thread table, so no share of any core
  /// reaches it again) and its slot is cleared so no stale heartbeat or
  /// affinity state can leak into later manager decisions. The AppId is
  /// retired, never reused; ids of other apps are stable. Detach the app
  /// from any manager *before* removing it. Throws std::out_of_range on
  /// an unknown or already-removed id.
  void remove_app(AppId app_id);

  /// False once `app_id` has been remove_app()ed; app() asserts it holds.
  bool app_alive(AppId app_id) const {
    return app_id >= 0 && app_id < num_apps() &&
           apps_[static_cast<std::size_t>(app_id)] != nullptr;
  }

  /// next_due() answer of a hook that has nothing left to do.
  static constexpr TimeUs kNeverDue = ManagerHook::kNeverDue;

  /// The core (cpu0) runtime-manager overhead is charged to.
  static constexpr std::size_t kManagerCore = 0;

  /// Installs a callback invoked with the tick's start time on every
  /// stepped tick, before applications generate work — the dispatch point
  /// for scenario events: state changed by the hook is visible to the
  /// whole tick. `next_due` returns the earliest tick start at which the
  /// hook acts (kNeverDue: never); no quiet span runs a tick that starts
  /// there or later, so the hook is called on every tick that matters. A
  /// hook without `next_due` is called on every tick and gets no spans.
  /// One hook; empty functions clear it.
  void set_tick_hook(std::function<void(TimeUs)> hook,
                     std::function<TimeUs()> next_due = {}) {
    tick_hook_ = std::move(hook);
    tick_hook_due_ = std::move(next_due);
  }

  /// Installs a manager the caller keeps alive (SimBackend::attach_manager
  /// forwards here).
  void set_manager(ManagerHook* manager) {
    if (owned_manager_.get() != manager) owned_manager_.reset();
    manager_ = manager;
  }

  /// Installs a manager the engine owns; replaces any previous manager.
  void set_manager(std::unique_ptr<ManagerHook> manager) {
    owned_manager_ = std::move(manager);
    manager_ = owned_manager_.get();
  }

  /// Detaches (and, if owned, destroys) the current manager. Accrued
  /// overhead accounting is kept.
  void clear_manager() {
    manager_ = nullptr;
    owned_manager_.reset();
  }

  ManagerHook* manager() const { return manager_; }

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  const PowerModel& power_model() const { return power_model_; }
  PowerSensor& sensor() { return sensor_; }
  const PowerSensor& sensor() const { return sensor_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// Number of app slots ever registered (removed apps keep their slot).
  int num_apps() const { return static_cast<int>(apps_.size()); }
  /// The app in slot `id`; the id must be alive (app_alive).
  App& app(AppId id) {
    assert(app_alive(id));
    return *apps_[static_cast<std::size_t>(id)];
  }
  const App& app(AppId id) const {
    return const_cast<SimEngine*>(this)->app(id);
  }

  TimeUs now() const { return now_; }
  TimeUs tick_us() const { return config_.tick_us; }

  /// sched_setaffinity equivalent for one thread of one app.
  void set_thread_affinity(AppId app_id, int local_tid, CpuMask mask);

  /// Applies `mask` to every thread of the app (cluster-level pinning).
  void set_app_affinity(AppId app_id, CpuMask mask);

  CpuMask thread_affinity(AppId app_id, int local_tid) const;
  CoreId thread_core(AppId app_id, int local_tid) const;

  /// CPU time one thread has consumed so far (us) — the live-hardware
  /// analogue is /proc/<tid>/stat; SimBackend serves elapsed_work_us
  /// from this.
  TimeUs thread_cpu_time_us(AppId app_id, int local_tid) const;

  /// Runs the simulation until `t` (absolute) or for `dt` (relative).
  /// While telemetry is armed, each step()/quiet-span pair is timed into
  /// engine.step_ns and engine.quiet_tick_ns (and traced when a span
  /// collector is installed).
  void run_until(TimeUs t);
  void run_for(TimeUs dt) { run_until(now_ + dt); }

  // --- Accounting ---
  /// Lifetime busy fraction of a core (busy time / elapsed).
  double core_busy_fraction(CoreId core) const;

  /// Total manager overhead charged so far (us of CPU time).
  TimeUs manager_overhead_us() const { return manager_overhead_total_us_; }

  /// Manager overhead as a percentage of one CPU over the elapsed time.
  double manager_cpu_utilization_pct() const;

  std::int64_t total_migrations() const;

  /// Ticks run in quiet spans so far (a subset of now() / tick_us()).
  std::int64_t quiet_ticks() const { return quiet_ticks_; }

  const std::vector<SimThread>& threads() const { return threads_; }

  // --- HARS_AUDIT invariant audits ---
  /// Whether this engine runs per-tick audits (SimConfig::audit). The
  /// managers consult it before auditing their own search results.
  bool audit_enabled() const { return config_.audit; }
  void set_audit(bool enabled) { config_.audit = enabled; }

  /// Runs the tick-boundary-safe audits immediately (thread-table
  /// conservation across spawn/kill, app-slot coherence) regardless of
  /// SimConfig::audit; throws AuditError on the first violation. The
  /// scenario runtime calls this after dispatching spawn/kill/hotplug
  /// events when audits are on; step() runs it (plus the placement,
  /// snapshot-coherence and busy-sum checks) every tick, and a quiet span
  /// at its end.
  void audit_now() const;

 private:
  /// The differential oracle's only way in: runs step_reference().
  friend void run_reference_until(SimEngine& engine, TimeUs t);

  void step();
  /// The retained pre-TickScratch tick (per-tick vector allocations,
  /// per-thread machine queries), bit-identical to step() and never
  /// followed by a quiet span; reached only through run_reference_until.
  /// Defined in hars_oracle (src/oracle/reference_run.cpp).
  void step_reference();
  /// Runs the quiet ticks that follow a step(), up to `until` and the
  /// tick hook's due time; returns at once when the span-entry checks
  /// fail.
  void run_quiet_span(TimeUs until);
  /// Sizes QuietScratch for the current thread table (outside the span's
  /// AllocGuard).
  void size_quiet_scratch();
  /// Plans `variant` for a manager charge of `mgr_use`; false when an app
  /// does not take quiet ticks.
  bool plan_quiet_variant(QuietVariant& variant, TimeUs mgr_use);
  /// Adds the cpu time of `variant`'s unbilled ticks to the thread table.
  void bill_quiet_cpu_time(QuietVariant& variant);
  /// Writes the span-local loads, every unbilled cpu time and the apps'
  /// remaining work back, so the thread table and the apps then read as
  /// step() would have left them.
  void write_back_quiet_state(const double* load, const double* rem);
  /// Equal per-core shares of `capacity` among the runnable threads
  /// placed on each core (step()'s expressions; the span planner's too).
  void compute_core_shares(const std::vector<TimeUs>& capacity,
                           std::vector<TimeUs>& share);
  /// Busy-sum conservation audit: recomputes each cluster's sum of
  /// min(core_busy, 1) through the machine's cluster masks (a path
  /// independent of the core -> cluster scratch map, same ascending-core
  /// order) and throws AuditError unless `cluster_busy` matches bit for
  /// bit.
  void audit_cluster_busy(const double* core_busy,
                          const std::vector<double>& cluster_busy,
                          const char* where) const;
  /// Post-assign check: every runnable placed thread sits on an online
  /// core inside its affinity set (or the online fallback). Runs
  /// immediately after scheduler assignment — NOT at end of step — since
  /// the manager hook may retune affinity/hotplug mid-tick, leaving
  /// placement legitimately stale until the next assign.
  void audit_placement() const;
  /// End-of-step audits that need the tick's scratch: snapshot coherence
  /// with the live machine and capacity/share ranges; also runs
  /// audit_now().
  void audit_tick() const;
  /// Sizes the scratch for the machine (first tick only) and snapshots
  /// the per-core DVFS frequencies for this tick.
  void prepare_scratch();
  /// Epoch-guarded refresh of the frequency/online snapshots; re-run
  /// after the manager hook, which may change them mid-tick.
  void refresh_machine_snapshot();
  SimThread& thread_of(AppId app_id, int local_tid);
  const SimThread& thread_of(AppId app_id, int local_tid) const;

  /// An alive app and the threads_ index of its first thread.
  struct LiveApp { AppId id; App* app; int thread_base; };
  /// The live_ entry of alive app `app_id` (binary search by id).
  std::vector<LiveApp>::iterator live_entry(AppId app_id);

  Machine machine_;
  PowerModel power_model_;
  PowerSensor sensor_;
  std::unique_ptr<Scheduler> scheduler_;
  SimConfig config_;

  std::vector<App*> apps_;  ///< Slot per AppId; null once removed.
  std::vector<SimThread> threads_;
  std::vector<LiveApp> live_;  ///< Alive apps by AppId: what ticks walk.
  ThreadId next_thread_id_ = 0;  ///< Ids stay unique across removals.
  std::int64_t retired_migrations_ = 0;  ///< Migrations of removed apps.

  std::function<void(TimeUs)> tick_hook_;
  std::function<TimeUs()> tick_hook_due_;  ///< Empty: the hook is always due.

  ManagerHook* manager_ = nullptr;
  std::unique_ptr<ManagerHook> owned_manager_;  ///< Set iff engine-owned.
  TimeUs pending_manager_us_ = 0;  ///< Overhead not yet charged to a tick.
  TimeUs manager_overhead_total_us_ = 0;

  /// Bumped by set_thread_affinity when a mask changes; a quiet span ends
  /// after a tick whose manager moved it.
  std::uint64_t affinity_epoch_ = 0;
  /// Per-tick load EWMA factor. Every SimThread's tracker is
  /// default-constructed by add_app and the tick length never changes,
  /// so one exp2 serves the engine's life.
  double load_decay_;

  TimeUs now_ = 0;
  std::int64_t quiet_ticks_ = 0;
  std::vector<double> core_busy_us_;  ///< Lifetime busy time per core.
  std::vector<double> tick_busy_;     ///< Scratch: per-core busy fraction.
  TickScratch scratch_;               ///< Per-tick scratch (optimized path).
  QuietScratch quiet_;                ///< Quiet-span scratch.
  /// True while TickScratch::core_capacity may hold a value other than a
  /// full tick (manager overhead was charged); forces a refill.
  bool capacity_dirty_ = true;
};

}  // namespace hars
