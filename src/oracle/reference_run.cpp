#include "oracle/reference_run.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "hmp/power_sensor.hpp"
#include "oracle/reference_gts.hpp"
#include "sched/load_tracker.hpp"

namespace hars {

// The retained reference tick path: the pre-TickScratch implementation,
// kept verbatim as the differential oracle (run_reference_until). The
// QuietSpan*, audit and alloc-free tick tests and hars_fuzz assert that
// step() and run_until's quiet spans produce bit-identical records
// against it.
void SimEngine::step_reference() {
  if (tick_hook_) tick_hook_(now_);

  const TimeUs tick = config_.tick_us;
  now_ += tick;

  for (App* a : apps_) {
    if (a != nullptr) a->begin_tick(now_);
  }

  // Refresh runnability and load averages.
  for (SimThread& t : threads_) {
    t.runnable = apps_[static_cast<std::size_t>(t.app)]->runnable(t.local_index);
    t.load.update(t.runnable, tick);
  }

  scheduler_->assign(machine_, threads_);
  if (config_.audit) audit_placement();  // Pre-manager: see step().

  std::fill(tick_busy_.begin(), tick_busy_.end(), 0.0);

  // Charge pending runtime-manager overhead against the manager core's
  // capacity for this tick.
  const TimeUs mgr_use = std::min(pending_manager_us_, tick);
  pending_manager_us_ -= mgr_use;
  std::vector<TimeUs> core_capacity(static_cast<std::size_t>(machine_.num_cores()),
                                    tick);
  if (mgr_use > 0) {
    core_capacity[kManagerCore] -= mgr_use;
    tick_busy_[kManagerCore] +=
        static_cast<double>(mgr_use) / static_cast<double>(tick);
  }

  // Count runnable threads per core, then hand out equal shares.
  std::vector<int> threads_on_core(static_cast<std::size_t>(machine_.num_cores()), 0);
  for (const SimThread& t : threads_) {
    if (t.runnable && t.core >= 0) {
      ++threads_on_core[static_cast<std::size_t>(t.core)];
    }
  }
  for (SimThread& t : threads_) {
    if (!t.runnable || t.core < 0) continue;
    const auto core = static_cast<std::size_t>(t.core);
    const int sharers = threads_on_core[core];
    if (sharers <= 0) continue;
    const TimeUs share = core_capacity[core] / sharers;
    if (share <= 0) continue;
    const CoreType type = machine_.core_type(t.core);
    const double freq = machine_.core_freq_ghz(t.core);
    const TimeUs used =
        apps_[static_cast<std::size_t>(t.app)]->execute(t.local_index, share, type, freq);
    t.cpu_time_us += used;
    tick_busy_[core] += static_cast<double>(used) / static_cast<double>(tick);
  }

  for (App* a : apps_) {
    if (a != nullptr) a->end_tick(now_);
  }

  if (manager_ != nullptr) {
    const TimeUs cost = manager_->on_tick(now_);
    if (cost > 0) {
      pending_manager_us_ += cost;
      manager_overhead_total_us_ += cost;
    }
  }

  for (double& b : tick_busy_) b = std::min(b, 1.0);
  for (int c = 0; c < machine_.num_cores(); ++c) {
    core_busy_us_[static_cast<std::size_t>(c)] +=
        tick_busy_[static_cast<std::size_t>(c)] * static_cast<double>(tick);
  }
  sensor_.tick(now_, tick, tick_busy_);

  // The reference path has no scratch to audit, but thread-table
  // conservation applies to it equally (placement was audited post-assign
  // above, before the manager hook could retune affinities).
  if (config_.audit) audit_now();
}

// The reference tick's sensor path (per-call scratch vector, per-cluster
// mask walk); the production tick calls tick_presummed instead.
void PowerSensor::tick(TimeUs now, TimeUs tick_us,
                       const std::vector<double>& core_busy) {
  const double dt_sec = us_to_sec(tick_us);
  std::vector<double> cluster_watts(
      static_cast<std::size_t>(machine_->num_clusters()), 0.0);
  double total = 0.0;
  for (int c = 0; c < machine_->num_clusters(); ++c) {
    double busy_sum = 0.0;
    const CpuMask mask = machine_->cluster_mask(c);
    for (CoreId core = mask.first(); core >= 0; core = mask.next(core)) {
      busy_sum += core_busy[static_cast<std::size_t>(core)];
    }
    const double watts = model_->cluster_power(c, busy_sum);
    cluster_watts[static_cast<std::size_t>(c)] = watts;
    cluster_energy_j_[static_cast<std::size_t>(c)] += watts * dt_sec;
    total += watts;
  }
  base_energy_j_ += model_->base_watts() * dt_sec;
  total += model_->base_watts();
  last_instant_power_ = total;

  maybe_sample(now, cluster_watts);
}

// The reference tick's load update (per-call exp2); the production tick
// calls update_with_decay with the engine's one decay factor instead.
void LoadTracker::update(bool runnable, TimeUs tick_us) {
  update_with_decay(runnable, decay_for(tick_us));
}

void run_reference_until(SimEngine& engine, TimeUs t) {
  while (engine.now_ < t) engine.step_reference();
}

ExperimentResult run_reference(const Experiment& experiment) {
  const ExperimentSpec& spec = experiment.spec();
  SimConfig config;
  config.audit = true;
  SimEngine engine(spec.platform,
                   spec.make_scheduler
                       ? spec.make_scheduler()
                       : std::make_unique<ReferenceGtsScheduler>(),
                   config);
  ReferenceSimBackend backend(engine);
  return experiment.run_on(backend);
}

}  // namespace hars
