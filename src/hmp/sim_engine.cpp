#include "hmp/sim_engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "hmp/platform_spec.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/span_collector.hpp"
#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

SimEngine::SimEngine(const PlatformSpec& platform,
                     std::unique_ptr<Scheduler> scheduler, SimConfig config)
    : machine_(platform.make_machine()),
      power_model_(machine_, platform),
      sensor_(machine_, power_model_),
      scheduler_(std::move(scheduler)),
      config_(config),
      load_decay_(LoadTracker().decay_for(config.tick_us)),
      core_busy_us_(static_cast<std::size_t>(machine_.num_cores()), 0.0),
      tick_busy_(static_cast<std::size_t>(machine_.num_cores()), 0.0) {
  if (!scheduler_) throw std::invalid_argument("SimEngine requires a scheduler");
  if (config_.tick_us <= 0) throw std::invalid_argument("tick must be positive");
}

AppId SimEngine::add_app(App* app) {
  assert(app != nullptr);
  const AppId id = static_cast<AppId>(apps_.size());
  apps_.push_back(app);
  live_.push_back(LiveApp{id, app, static_cast<int>(threads_.size())});
  for (int i = 0; i < app->thread_count(); ++i) {
    SimThread t;
    t.id = next_thread_id_++;
    t.app = id;
    t.app_ptr = app;
    t.local_index = i;
    t.affinity = machine_.all_mask();
    threads_.push_back(t);
  }
  return id;
}

void SimEngine::remove_app(AppId app_id) {
  if (!app_alive(app_id)) {
    throw std::out_of_range("remove_app: unknown or already-removed app " +
                            std::to_string(app_id));
  }
  const auto entry = live_entry(app_id);
  const int thread_count = entry->app->thread_count();
  const auto first = threads_.begin() + entry->thread_base;
  const auto last = first + thread_count;
  for (auto t = first; t != last; ++t) retired_migrations_ += t->migrations;
  threads_.erase(first, last);
  // Later apps' thread ranges shift down by the erased block.
  for (auto later = entry + 1; later != live_.end(); ++later) {
    later->thread_base -= thread_count;
  }
  live_.erase(entry);
  apps_[static_cast<std::size_t>(app_id)] = nullptr;
}

std::vector<SimEngine::LiveApp>::iterator SimEngine::live_entry(AppId app_id) {
  assert(app_alive(app_id));
  return std::lower_bound(
      live_.begin(), live_.end(), app_id,
      [](const LiveApp& live, AppId id) { return live.id < id; });
}

SimThread& SimEngine::thread_of(AppId app_id, int local_tid) {
  assert(local_tid >= 0 && local_tid < app(app_id).thread_count());
  return threads_[static_cast<std::size_t>(live_entry(app_id)->thread_base +
                                           local_tid)];
}

const SimThread& SimEngine::thread_of(AppId app_id, int local_tid) const {
  return const_cast<SimEngine*>(this)->thread_of(app_id, local_tid);
}

void SimEngine::set_thread_affinity(AppId app_id, int local_tid, CpuMask mask) {
  CpuMask& affinity = thread_of(app_id, local_tid).affinity;
  if (affinity.bits() == mask.bits()) return;
  affinity = mask;
  ++affinity_epoch_;
}

void SimEngine::set_app_affinity(AppId app_id, CpuMask mask) {
  App& a = app(app_id);
  for (int i = 0; i < a.thread_count(); ++i) set_thread_affinity(app_id, i, mask);
}

CpuMask SimEngine::thread_affinity(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).affinity;
}

CoreId SimEngine::thread_core(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).core;
}

TimeUs SimEngine::thread_cpu_time_us(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).cpu_time_us;
}

namespace {

/// Pushes one "tick" trace span when a collector is installed.
void push_tick_span(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t ticks) {
  obs::SpanCollector* collector = obs::spans();
  if (collector == nullptr) return;
  obs::SpanEvent event;
  event.name = name;
  event.cat = "tick";
  event.ts_ns = start_ns;
  event.dur_ns = end_ns - start_ns;
  event.ticks = ticks;
  event.tid = obs::thread_tag();
  collector->push(event);
}

}  // namespace

void SimEngine::run_until(TimeUs t) {
  const obs::Catalog& cat = obs::catalog();
  while (now_ < t) {
    // Telemetry attach happens before step()'s AllocGuard: building the
    // shard allocates (under its own AllowScope), and detaching when
    // telemetry was just disabled folds this thread's counts into the
    // registry.
    obs::ensure_thread_registered();
    if (!obs::thread_attached()) {
      step();
      if (now_ < t) run_quiet_span(t);
      continue;
    }
    // Armed: every tick passes through this step/span pair, so three
    // clock reads time all of them — one step() observation, and the
    // span's wall time spread over the ticks it ran.
    const std::int64_t step_start = obs::now_ns();
    step();
    const std::int64_t step_end = obs::now_ns();
    obs::hist_observe(cat.step_ns,
                      static_cast<double>(step_end - step_start));
    push_tick_span("step", step_start, step_end, 0);
    if (now_ >= t) break;
    const std::int64_t quiet_before = quiet_ticks_;
    run_quiet_span(t);
    const std::int64_t ticks = quiet_ticks_ - quiet_before;
    if (ticks == 0) continue;
    const std::int64_t span_end = obs::now_ns();
    obs::hist_observe(cat.quiet_tick_ns,
                      static_cast<double>(span_end - step_end) /
                          static_cast<double>(ticks));
    push_tick_span("quiet_span", step_end, span_end, ticks);
  }
}

HARS_HOT void SimEngine::prepare_scratch() {
  TickScratch& s = scratch_;
  const auto n = static_cast<std::size_t>(machine_.num_cores());
  if (s.core_type.size() != n) {
    // First tick only (the core count never changes): size the scratch.
    allocg::AllowScope allow("TickScratch first-tick growth");
    // hars-lint: allow-begin(no-alloc): one-time growth, guarded above
    s.core_capacity.resize(n);
    s.threads_on_core.resize(n);
    s.core_share.resize(n);
    s.core_type.resize(n);
    s.core_cluster.resize(n);
    s.core_freq_ghz.resize(n);
    s.cluster_busy.resize(static_cast<std::size_t>(machine_.num_clusters()));
    s.cluster_freq.resize(static_cast<std::size_t>(machine_.num_clusters()));
    s.cluster_online.resize(static_cast<std::size_t>(machine_.num_clusters()));
    // hars-lint: allow-end
    for (CoreId c = 0; c < machine_.num_cores(); ++c) {
      s.core_type[static_cast<std::size_t>(c)] = machine_.core_type(c);
      s.core_cluster[static_cast<std::size_t>(c)] = machine_.cluster_of(c);
    }
    // Force both snapshots to refresh below, whatever the machine state.
    s.dvfs_epoch = 0;  // Machine epochs start at 1.
    s.online_bits = ~machine_.online_mask().bits();
  }
  refresh_machine_snapshot();
}

HARS_HOT void SimEngine::refresh_machine_snapshot() {
  TickScratch& s = scratch_;
  // DVFS levels change at tick boundaries (tick hook, manager — the
  // latter *after* the execute loop but *before* the sensor, so this runs
  // again post-manager); the machine's epoch says when, so the snapshot
  // is refreshed incrementally instead of every tick. Same for the
  // hotplug mask.
  if (s.dvfs_epoch != machine_.dvfs_epoch()) {
    s.dvfs_epoch = machine_.dvfs_epoch();
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      const double f = machine_.freq_ghz(cl);
      s.cluster_freq[static_cast<std::size_t>(cl)] = f;
      const CpuMask mask = machine_.cluster_mask(cl);
      for (CoreId c = mask.first(); c >= 0; c = mask.next(c)) {
        s.core_freq_ghz[static_cast<std::size_t>(c)] = f;
      }
    }
  }
  if (s.online_bits != machine_.online_mask().bits()) {
    s.online_bits = machine_.online_mask().bits();
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      s.cluster_online[static_cast<std::size_t>(cl)] =
          (machine_.online_mask() & machine_.cluster_mask(cl)).any() ? 1 : 0;
    }
  }
}

HARS_HOT void SimEngine::step() {
  // run_until attached (or detached) this thread before the call, so the
  // tick's instrumentation is a branch + a relaxed add per write.
  const obs::Catalog& cat = obs::catalog();

  if (tick_hook_) tick_hook_(now_);

  // From here to the end of the tick the engine is on the allocation-free
  // contract (PR 5): any allocation not inside a declared AllowScope
  // (heartbeat history, sensor samples, manager bookkeeping, guarded
  // first-use growth) is a violation. The scenario hook above is outside
  // the contract — spawning an app allocates by design.
  AllocGuard alloc_guard("SimEngine::step");

  const TimeUs tick = config_.tick_us;
  now_ += tick;

  for (const LiveApp& live : live_) live.app->begin_tick(now_);

  prepare_scratch();
  TickScratch& s = scratch_;

  // Refresh runnability and load averages, one app block at a time: the
  // app answers for all of its (contiguous) threads with one virtual
  // dispatch (App::refresh_runnable). The EWMA decay is the engine-wide
  // constant load_decay_ (every tracker has the default half-life,
  // asserted below).
  if (!threads_.empty()) {
    const double decay = load_decay_;
    for (const LiveApp& live : live_) {
      App* a = live.app;
      const auto n = static_cast<std::size_t>(a->thread_count());
      if (s.runnable_capacity < n) {
        // Grows only when an app with more threads than ever seen joins.
        allocg::AllowScope allow("runnable buffer growth");
        s.runnable = std::make_unique<bool[]>(n);  // hars-lint: allow(no-alloc): guarded growth
        s.runnable_capacity = n;
      }
      a->refresh_runnable(s.runnable.get());
      SimThread* block = &threads_[static_cast<std::size_t>(live.thread_base)];
      for (std::size_t i = 0; i < n; ++i) {
        SimThread& t = block[i];
        assert(t.load.half_life_us() == LoadTracker().half_life_us());
        t.runnable = s.runnable[i];
        t.load.update_with_decay(t.runnable, decay);
      }
    }
  }

  scheduler_->assign(machine_, threads_);
  if (config_.audit) {
    // Placement is audited here — between assign and the manager hook —
    // because the manager may legitimately narrow affinities or hotplug
    // cores later in this tick; threads keep their stale cores until the
    // next tick's assign pass re-places them.
    allocg::AllowScope allow("audit diagnostics");
    audit_placement();
  }

  {
    // tick_busy_ was re-zeroed by the integration pass of the previous
    // tick (and starts zeroed), so no refill is needed here. The capacity
    // array likewise only needs a refill while manager overhead is being
    // charged against it.
    const TimeUs mgr_use = std::min(pending_manager_us_, tick);
    pending_manager_us_ -= mgr_use;
    if (mgr_use > 0 || capacity_dirty_) {
      std::fill(s.core_capacity.begin(), s.core_capacity.end(), tick);
      capacity_dirty_ = false;
    }
    if (mgr_use > 0) {
      s.core_capacity[kManagerCore] -= mgr_use;
      capacity_dirty_ = true;
      tick_busy_[kManagerCore] +=
          static_cast<double>(mgr_use) / static_cast<double>(tick);
    }

    compute_core_shares(s.core_capacity, s.core_share);
    // The used -> busy-fraction division repeats heavily (most threads use
    // their whole share), so the last quotient is memoized; when computed,
    // it is the same division the reference path performs.
    TimeUs memo_used = -1;
    double memo_busy = 0.0;
    for (SimThread& t : threads_) {
      if (!t.runnable || t.core < 0) continue;
      const auto core = static_cast<std::size_t>(t.core);
      const TimeUs share = s.core_share[core];
      if (share <= 0) continue;
      const TimeUs used = t.app_ptr->execute(
          t.local_index, share, s.core_type[core], s.core_freq_ghz[core]);
      t.cpu_time_us += used;
      if (used != memo_used) {
        memo_used = used;
        memo_busy = static_cast<double>(used) / static_cast<double>(tick);
      }
      tick_busy_[core] += memo_busy;
    }
  }

  for (const LiveApp& live : live_) live.app->end_tick(now_);

  if (manager_ != nullptr) {
    const TimeUs cost = manager_->on_tick(now_);
    if (cost > 0) {
      pending_manager_us_ += cost;
      manager_overhead_total_us_ += cost;
    }
    // The manager may have just moved frequencies or hotplugged cores;
    // the sensor below must integrate against the new machine state, as
    // the reference path (live reads) does.
    refresh_machine_snapshot();
  }

  // The busy-sum audit needs the busy fractions the integration pass
  // below consumes and re-zeroes.
  std::array<double, 64> audit_busy;  // CpuMask caps cores at 64.
  if (config_.audit) {
    std::copy(tick_busy_.begin(), tick_busy_.end(), audit_busy.begin());
  }

  // One pass clamps the busy fractions, integrates lifetime busy time and
  // accumulates the per-cluster busy sums the sensor needs; cores of a
  // cluster are contiguous and ascending, so the addition order matches
  // the sensor's own mask walk.
  std::fill(s.cluster_busy.begin(), s.cluster_busy.end(), 0.0);
  for (int c = 0; c < machine_.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double b = std::min(tick_busy_[i], 1.0);
    tick_busy_[i] = 0.0;  // Pre-zeroed for the next tick's accumulation.
    core_busy_us_[i] += b * static_cast<double>(tick);
    s.cluster_busy[static_cast<std::size_t>(s.core_cluster[i])] += b;
  }
  if (config_.audit) {
    audit_cluster_busy(audit_busy.data(), s.cluster_busy, "SimEngine::step");
  }
  sensor_.tick_presummed(now_, tick, s.cluster_busy, s.cluster_freq,
                         s.cluster_online);
  if (config_.audit) {
    allocg::AllowScope allow("audit diagnostics");
    audit_tick();
  }

  obs::counter_add(cat.ticks);
  // Per-tick allocation telemetry (satellite of the AllocGuard contract):
  // total allocations this tick (the declared AllowScopes) and undeclared
  // violations, which must stay at zero.
  obs::counter_add(cat.tick_allocs, alloc_guard.allocations());
  obs::counter_add(cat.tick_alloc_violations, alloc_guard.violations());
}

HARS_HOT void SimEngine::compute_core_shares(const std::vector<TimeUs>& capacity,
                                             std::vector<TimeUs>& share) {
  // Count runnable threads per core, then hand out equal shares. The
  // scheduler may already track the counts (GTS does); otherwise one pass
  // over the thread table rebuilds them. The per-core share is computed
  // once per core (bit-identical to the per-thread division of the
  // reference path: same operands).
  TickScratch& s = scratch_;
  const std::vector<int>* counts = scheduler_->runnable_per_core();
  if (counts == nullptr) {
    std::fill(s.threads_on_core.begin(), s.threads_on_core.end(), 0);
    for (const SimThread& t : threads_) {
      if (t.runnable && t.core >= 0) {
        ++s.threads_on_core[static_cast<std::size_t>(t.core)];
      }
    }
    counts = &s.threads_on_core;
  }
  for (std::size_t c = 0; c < share.size(); ++c) {
    const int sharers = (*counts)[c];
    // sharers == 1 (one thread per core — the common case once a manager
    // has spread the threads) skips the integer division; cap / 1 == cap.
    share[c] = sharers <= 1 ? (sharers == 1 ? capacity[c] : 0)
                            : capacity[c] / sharers;
  }
}

void SimEngine::audit_cluster_busy(const double* core_busy,
                                   const std::vector<double>& cluster_busy,
                                   const char* where) const {
  for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
    double sum = 0.0;
    const CpuMask mask = machine_.cluster_mask(cl);
    for (CoreId c = mask.first(); c >= 0; c = mask.next(c)) {
      sum += std::min(core_busy[static_cast<std::size_t>(c)], 1.0);
    }
    const double fed = cluster_busy[static_cast<std::size_t>(cl)];
    if (fed != sum) {
      // The diagnostic allocates; the throw must not also trip the
      // caller's AllocGuard mid-unwind.
      allocg::AllowScope allow("audit diagnostics");
      throw AuditError(std::string(where) + ": cluster " + std::to_string(cl) +
                       " busy-sum fed to the presummed sensor (" +
                       std::to_string(fed) +
                       ") diverges from the mask-walk recomputation (" +
                       std::to_string(sum) + ")");
    }
  }
}

void SimEngine::size_quiet_scratch() {
  const std::size_t threads = threads_.size();
  const auto cores = static_cast<std::size_t>(machine_.num_cores());
  const auto clusters = static_cast<std::size_t>(machine_.num_clusters());
  // resize() is a no-op at the current size, so this allocates only when
  // the thread table grew past every earlier span.
  allocg::AllowScope allow("quiet-span scratch growth");
  quiet_.grants.resize(threads);
  for (std::vector<double>& load : quiet_.load) load.resize(threads);
  for (std::vector<double>& rem : quiet_.rem) rem.resize(threads);
  quiet_.load_add.resize(threads);
  quiet_.load_lo.resize(threads);
  quiet_.load_hi.resize(threads);
  for (QuietVariant& v : quiet_.variants) {
    v.mgr_use = -1;  // Placement and frequencies may differ from last span.
    v.core_capacity.resize(cores);
    v.core_share.resize(cores);
    v.lanes.resize(threads);
    v.work.resize(threads);
    v.floor.resize(threads);
    v.core_busy_us.resize(cores);
    v.cluster_busy.resize(clusters);
    v.cluster_watts.resize(clusters);
    v.unbilled_ticks = 0;
  }
}

HARS_HOT bool SimEngine::plan_quiet_variant(QuietVariant& v, TimeUs mgr_use) {
  const TimeUs tick = config_.tick_us;
  const TickScratch& s = scratch_;
  bill_quiet_cpu_time(v);  // The lanes below replace the billed ones.
  std::fill(v.core_capacity.begin(), v.core_capacity.end(), tick);
  v.core_capacity[kManagerCore] -= mgr_use;
  compute_core_shares(v.core_capacity, v.core_share);

  // Each thread's grant: what step()'s execute loop hands it.
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const SimThread& t = threads_[i];
    QuietGrant& grant = quiet_.grants[i];
    grant = QuietGrant{};
    if (!t.runnable || t.core < 0) continue;
    const auto core = static_cast<std::size_t>(t.core);
    if (v.core_share[core] <= 0) continue;
    grant.share_us = v.core_share[core];
    grant.type = s.core_type[core];
    grant.freq_ghz = s.core_freq_ghz[core];
  }
  for (const LiveApp& live : live_) {
    const auto base = static_cast<std::size_t>(live.thread_base);
    if (!live.app->plan_quiet(&quiet_.grants[base], &v.lanes[base])) {
      v.mgr_use = -1;
      return false;
    }
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    v.work[i] = v.lanes[i].work;
    v.floor[i] = v.lanes[i].floor;
  }

  // Busy fractions in step()'s addition order: the manager charge first,
  // then each executed thread in thread-table order.
  std::vector<double>& busy = v.core_busy_us;
  std::fill(busy.begin(), busy.end(), 0.0);
  if (mgr_use > 0) {
    busy[kManagerCore] +=
        static_cast<double>(mgr_use) / static_cast<double>(tick);
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (quiet_.grants[i].share_us <= 0) continue;
    busy[static_cast<std::size_t>(threads_[i].core)] +=
        static_cast<double>(v.lanes[i].used_us) / static_cast<double>(tick);
  }
  std::fill(v.cluster_busy.begin(), v.cluster_busy.end(), 0.0);
  for (std::size_t c = 0; c < busy.size(); ++c) {
    v.cluster_busy[static_cast<std::size_t>(s.core_cluster[c])] +=
        std::min(busy[c], 1.0);
  }
  if (config_.audit) {
    audit_cluster_busy(busy.data(), v.cluster_busy,
                       "SimEngine::plan_quiet_variant");
  }
  // From here on the array holds each core's lifetime busy-time
  // increment, the product step() adds.
  for (double& b : busy) b = std::min(b, 1.0) * static_cast<double>(tick);
  sensor_.cluster_watts(v.cluster_busy, s.cluster_freq, s.cluster_online,
                        v.cluster_watts, v.total_watts);
  v.mgr_use = mgr_use;
  return true;
}

HARS_HOT void SimEngine::run_quiet_span(TimeUs until) {
  // Span entry: nothing may act on the tick but arithmetic. Cheapest
  // checks first — a tick hook that is due (or cannot say when it is),
  // an app whose begin_tick would admit work or a scheduler that never
  // elides assign() ends it here.
  if (tick_hook_) {
    if (!tick_hook_due_) return;
    until = std::min(until, tick_hook_due_());
    if (now_ >= until) return;
  }
  TickScratch& s = scratch_;
  if (s.dvfs_epoch != machine_.dvfs_epoch() ||
      s.online_bits != machine_.online_mask().bits()) {
    return;
  }
  if (!scheduler_->placement_fixed_point(machine_, threads_)) return;
  // The previous tick's end_tick may have opened an iteration: the flags
  // the next step() would read must equal the table's. Quiet ticks move
  // no item and retire no work, so a begin_tick that is a no-op now stays
  // one for the whole span.
  for (const LiveApp& live : live_) {
    const App* a = live.app;
    if (!a->begin_tick_idle()) return;
    a->refresh_runnable(s.runnable.get());
    const SimThread* block =
        &threads_[static_cast<std::size_t>(live.thread_base)];
    for (int i = 0; i < a->thread_count(); ++i) {
      if (block[i].runnable != s.runnable[static_cast<std::size_t>(i)]) return;
    }
  }

  size_quiet_scratch();
  const std::size_t n = threads_.size();
  double* const lo = quiet_.load_lo.data();
  double* const hi = quiet_.load_hi.data();
  if (!scheduler_->load_bounds(threads_, lo, hi)) return;
  // Span-local remaining work: the apps hand it over once.
  double* rem = quiet_.rem[0].data();
  double* rem_next = quiet_.rem[1].data();
  for (const LiveApp& live : live_) {
    if (!live.app->export_quiet(&rem[live.thread_base])) return;
  }
  // One allocation-free contract for the whole span, as step() has per
  // tick; manager bookkeeping and sensor samples open their own scopes.
  AllocGuard alloc_guard("SimEngine::run_quiet_span");
  const TimeUs tick = config_.tick_us;
  // Span-local loads: runnable flags are fixed for the span, so each
  // thread's EWMA term is too.
  const double decay = load_decay_;
  double* load = quiet_.load[0].data();
  double* load_next = quiet_.load[1].data();
  double* const add = quiet_.load_add.data();
  for (std::size_t i = 0; i < n; ++i) {
    load[i] = threads_[i].load.value();
    add[i] = LoadTracker::add_for(threads_[i].runnable, decay);
  }
  TimeUs manager_due = kNeverDue;
  TimeUs poll_period = 0;
  TimeUs poll_cost = 0;
  bool idle_polls = false;
  if (manager_ != nullptr) {
    manager_due = manager_->next_due();
    idle_polls = manager_->idle_poll(poll_period, poll_cost);
  }
  // Set by the span's first manager call: every heartbeat is seen then,
  // and quiet ticks emit none, so each later due poll is idle.
  bool polled = false;
  bool skipped_polls = false;
  const QuietVariant* last = nullptr;
  std::int64_t ticks = 0;
  bool machine_moved = false;
  while (now_ < until && !machine_moved) {
    const TimeUs mgr_use = std::min(pending_manager_us_, tick);
    QuietVariant& v = quiet_.variants[mgr_use > 0 ? 1 : 0];
    if (v.mgr_use != mgr_use && !plan_quiet_variant(v, mgr_use)) break;
    // Loads advance first, as in step(), and every thread's remaining
    // work drops by its lane's, into the other arrays. A load outside its
    // scheduler bound, or work at or below its lane's floor, ends the
    // span before this tick, and step() runs it from the current values.
    const double* const work = v.work.data();
    const double* const floor = v.floor.data();
    bool quiet = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = LoadTracker::advance(load[i], decay, add[i]);
      load_next[i] = x;
      const double r = rem[i] - work[i];
      rem_next[i] = r;
      quiet &= (x >= lo[i]) & (x <= hi[i]) & (r > floor[i]);
    }
    if (!quiet) break;
    std::swap(load, load_next);
    std::swap(rem, rem_next);

    // Commit: the manager, integration and the sensor, in step()'s order.
    // Cpu time is integral, so it is billed per variant when the thread
    // table is next read.
    pending_manager_us_ -= mgr_use;
    now_ += tick;
    ++v.unbilled_ticks;
    if (now_ >= manager_due) {
      if (polled && idle_polls) {
        pending_manager_us_ += poll_cost;
        manager_overhead_total_us_ += poll_cost;
        manager_due = now_ + poll_period;
        skipped_polls = true;
      } else {
        // The manager may read the thread table and the apps.
        write_back_quiet_state(load, rem);
        const std::uint64_t affinity_epoch = affinity_epoch_;
        const TimeUs cost = manager_->on_tick(now_);
        manager_due = manager_->next_due();
        polled = true;
        if (cost > 0) {
          pending_manager_us_ += cost;
          manager_overhead_total_us_ += cost;
        }
        // A retune, hotplug or affinity change ends the span after this
        // tick; the sensor integrates against the new machine state, as
        // in step().
        if (affinity_epoch_ != affinity_epoch ||
            s.dvfs_epoch != machine_.dvfs_epoch() ||
            s.online_bits != machine_.online_mask().bits()) {
          refresh_machine_snapshot();
          machine_moved = true;
        }
      }
    }
    for (std::size_t c = 0; c < core_busy_us_.size(); ++c) {
      core_busy_us_[c] += v.core_busy_us[c];
    }
    // The variant's watts hold for the snapshot it was planned on.
    if (machine_moved) {
      sensor_.tick_presummed(now_, tick, v.cluster_busy, s.cluster_freq,
                             s.cluster_online);
    } else {
      sensor_.tick_watts(now_, tick, v.cluster_watts, v.total_watts);
    }
    last = &v;
    ++ticks;
  }
  if (ticks == 0) return;
  if (skipped_polls) manager_->skip_idle_polls(manager_due);
  write_back_quiet_state(load, rem);

  // Leave the tick scratch as the span's last tick would have: audits
  // and the next step() read it.
  std::copy(last->core_capacity.begin(), last->core_capacity.end(),
            s.core_capacity.begin());
  std::copy(last->core_share.begin(), last->core_share.end(),
            s.core_share.begin());
  std::copy(last->cluster_busy.begin(), last->cluster_busy.end(),
            s.cluster_busy.begin());
  capacity_dirty_ = true;
  scheduler_->note_elided_assigns(ticks);
  const obs::Catalog& cat = obs::catalog();
  quiet_ticks_ += ticks;
  obs::counter_add(cat.ticks, static_cast<std::uint64_t>(ticks));
  obs::counter_add(cat.quiet_ticks, static_cast<std::uint64_t>(ticks));
  obs::counter_add(cat.tick_allocs, alloc_guard.allocations());
  obs::counter_add(cat.tick_alloc_violations, alloc_guard.violations());
  if (config_.audit) {
    allocg::AllowScope allow("audit diagnostics");
    audit_tick();
  }
}

HARS_HOT void SimEngine::bill_quiet_cpu_time(QuietVariant& v) {
  if (v.unbilled_ticks == 0) return;
  const QuietLane* const lanes = v.lanes.data();
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    threads_[i].cpu_time_us += lanes[i].used_us * v.unbilled_ticks;
  }
  v.unbilled_ticks = 0;
}

HARS_HOT void SimEngine::write_back_quiet_state(const double* load,
                                                 const double* rem) {
  for (QuietVariant& v : quiet_.variants) bill_quiet_cpu_time(v);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    threads_[i].load.prime(load[i]);
  }
  for (const LiveApp& live : live_) {
    live.app->import_quiet(&rem[live.thread_base]);
  }
}

void SimEngine::audit_now() const {
  // live_ must list exactly the non-null slots, in slot order.
  std::size_t next = 0;
  std::size_t alive_threads = 0;
  for (std::size_t slot = 0; slot < apps_.size(); ++slot) {
    const App* a = apps_[slot];
    if (a == nullptr) continue;
    if (next >= live_.size() || live_[next].id != static_cast<AppId>(slot) ||
        live_[next].app != a) {
      throw AuditError("SimEngine::audit_now: live-app table out of sync "
                       "with alive app slot " + std::to_string(slot));
    }
    const int base = live_[next++].thread_base;
    const int count = a->thread_count();
    // The alive apps' blocks tile the thread table in AppId order.
    if (static_cast<std::size_t>(base) != alive_threads ||
        alive_threads + static_cast<std::size_t>(count) > threads_.size()) {
      throw AuditError("SimEngine::audit_now: app " + std::to_string(slot) +
                       " thread block [" + std::to_string(base) + ", " +
                       std::to_string(base + count) +
                       ") does not follow the previous app's block inside "
                       "the thread table of size " +
                       std::to_string(threads_.size()));
    }
    for (int i = 0; i < count; ++i) {
      const SimThread& t =
          threads_[static_cast<std::size_t>(base) + static_cast<std::size_t>(i)];
      if (t.app != static_cast<AppId>(slot) || t.app_ptr != a ||
          t.local_index != i) {
        throw AuditError(
            "SimEngine::audit_now: thread table entry " +
            std::to_string(base + i) + " does not belong to app " +
            std::to_string(slot) + " local thread " + std::to_string(i) +
            " (spawn/kill bookkeeping lost conservation)");
      }
    }
    alive_threads += static_cast<std::size_t>(count);
  }
  if (next != live_.size()) {
    throw AuditError("SimEngine::audit_now: live-app table holds " +
                     std::to_string(live_.size()) + " apps but only " +
                     std::to_string(next) + " slots are alive");
  }
  if (alive_threads != threads_.size()) {
    throw AuditError("SimEngine::audit_now: alive apps account for " +
                     std::to_string(alive_threads) + " threads but the table "
                     "holds " + std::to_string(threads_.size()) +
                     " (spawn/kill/remove lost thread-count conservation)");
  }
}

void SimEngine::audit_placement() const {
  const CpuMask online = machine_.online_mask();
  for (const SimThread& t : threads_) {
    if (t.core >= machine_.num_cores()) {
      throw AuditError("SimEngine::audit_placement: thread " +
                       std::to_string(t.id) + " sits on nonexistent core " +
                       std::to_string(t.core));
    }
    if (!t.runnable || t.core < 0) continue;  // Sleepers keep stale cores.
    if (!online.test(t.core)) {
      throw AuditError("SimEngine::audit_placement: runnable thread " +
                       std::to_string(t.id) + " placed on offline core " +
                       std::to_string(t.core));
    }
    // The scheduler honours affinity unless no allowed core is online, in
    // which case Linux (and the model) falls back to any online core.
    const CpuMask allowed = t.affinity & online;
    if (allowed.any() && !allowed.test(t.core)) {
      throw AuditError("SimEngine::audit_placement: runnable thread " +
                       std::to_string(t.id) + " placed on core " +
                       std::to_string(t.core) +
                       " outside its online affinity set");
    }
  }
}

void SimEngine::audit_tick() const {
  audit_now();
  // audit_placement() deliberately does NOT run here: the manager hook
  // (which ran between assign and this audit) may have narrowed thread
  // affinities or hotplugged cores, making the tick's placement
  // legitimately stale until the next assign. Placement is audited at
  // its freshness point, immediately after scheduler_->assign().

  // Snapshot coherence: the epoch-guarded TickScratch views of DVFS and
  // hotplug state must match the live machine at the end of the tick —
  // the sensor just integrated against them.
  const TickScratch& s = scratch_;
  if (s.core_type.size() != static_cast<std::size_t>(machine_.num_cores())) {
    throw AuditError("SimEngine::audit_tick: scratch never sized for the "
                     "machine (prepare_scratch did not run?)");
  }
  if (s.dvfs_epoch != machine_.dvfs_epoch()) {
    throw AuditError("SimEngine::audit_tick: scratch DVFS epoch " +
                     std::to_string(s.dvfs_epoch) +
                     " is stale against machine epoch " +
                     std::to_string(machine_.dvfs_epoch()) +
                     " (post-manager refresh missed a retune)");
  }
  if (s.online_bits != machine_.online_mask().bits()) {
    throw AuditError("SimEngine::audit_tick: scratch online mask is stale "
                     "against the machine's hotplug state");
  }
  for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
    const auto i = static_cast<std::size_t>(cl);
    if (s.cluster_freq[i] != machine_.freq_ghz(cl)) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " frequency snapshot " + std::to_string(s.cluster_freq[i]) +
                       " diverges from live " +
                       std::to_string(machine_.freq_ghz(cl)));
    }
    const bool live_online =
        (machine_.online_mask() & machine_.cluster_mask(cl)).any();
    if ((s.cluster_online[i] != 0) != live_online) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " online snapshot diverges from the live mask");
    }
    const double busy = s.cluster_busy[i];
    const double cores = static_cast<double>(machine_.cluster_core_count(cl));
    if (!(busy >= 0.0 && busy <= cores)) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " busy-sum " + std::to_string(busy) +
                       " outside [0, " + std::to_string(cores) +
                       "] after per-core clamping");
    }
  }
  const TimeUs tick = config_.tick_us;
  for (CoreId c = 0; c < machine_.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (s.core_freq_ghz[i] != machine_.core_freq_ghz(c)) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " frequency snapshot diverges from its cluster's "
                       "live frequency");
    }
    if (s.core_capacity[i] < 0 || s.core_capacity[i] > tick) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " capacity " + std::to_string(s.core_capacity[i]) +
                       " outside [0, tick=" + std::to_string(tick) +
                       "] (manager overhead over-charged)");
    }
    if (s.core_share[i] < 0 || s.core_share[i] > s.core_capacity[i]) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " share " + std::to_string(s.core_share[i]) +
                       " exceeds its capacity " +
                       std::to_string(s.core_capacity[i]));
    }
  }
}

double SimEngine::core_busy_fraction(CoreId core) const {
  if (now_ <= 0) return 0.0;
  return core_busy_us_[static_cast<std::size_t>(core)] / static_cast<double>(now_);
}

double SimEngine::manager_cpu_utilization_pct() const {
  if (now_ <= 0) return 0.0;
  return 100.0 * static_cast<double>(manager_overhead_total_us_) /
         static_cast<double>(now_);
}

std::int64_t SimEngine::total_migrations() const {
  std::int64_t n = retired_migrations_;
  for (const SimThread& t : threads_) n += t.migrations;
  return n;
}

}  // namespace hars
