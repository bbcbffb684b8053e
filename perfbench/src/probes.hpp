// Layer probes: decorators the benchmark installs around the public seams
// of the HARS library, so every per-layer number is taken from outside
// src/ by timing calls into a layer.
//
//   * A scheduler decorator wraps stock GTS (ExperimentBuilder::
//     os_scheduler) and times assign() plus the interval between
//     successive assign() calls, which is one engine tick.
//   * The runtime variants are re-registered in VariantRegistry under
//     their own names with a factory that wraps each manager-bearing
//     instance, timing on_tick and decoding the modeled cost it returns.
//   * "mock_linux" is re-registered in BackendRegistry with a factory
//     that wraps the backend, timing the actuation calls and the backend
//     share of each live tick.
//
// Wrappers only forward, so records are byte-identical with probes on or
// off; the benchmark checks that. Probes stay disarmed until a workload
// arms them, and arming happens only between runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanosecond samples: exact 1 ns buckets below kFine and 1%-wide
/// logarithmic buckets above, so percentiles of sub-microsecond spans are
/// not bucket artifacts. All storage is allocated at construction: add()
/// runs inside the engine's allocation-guarded tick.
class NsHistogram {
 public:
  NsHistogram();
  void add(std::int64_t ns);
  void merge(const NsHistogram& other);
  std::int64_t count() const { return count_; }
  double mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::int64_t kFine = 8192;
  static constexpr std::int64_t kCoarse = 2048;
  std::vector<std::int64_t> buckets_;  ///< kFine exact, then kCoarse log.
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

/// What one manager layer (core = HARS, mphars = MP-HARS / CONS-I) did
/// while probed.
struct ManagerStats {
  std::int64_t ticks = 0;       ///< on_tick calls.
  double tick_ns_sum = 0.0;     ///< Host time inside on_tick.
  NsHistogram adapt_ns;         ///< on_tick calls that searched.
  std::int64_t searches = 0;    ///< Ticks whose cost shows a search.
  std::int64_t candidates = 0;  ///< Decoded from the modeled cost (core).
  double modeled_adapt_us = 0;  ///< Modeled cost of those ticks minus poll.
  std::int64_t moves = 0;       ///< VariantInstance::adaptations().
  double modeled_cost_us = 0;   ///< Sum of every returned on_tick cost.
  void merge(const ManagerStats& other);
};

/// Everything the probes collected since the last take_probe_stats().
struct ProbeStats {
  // Scheduler decorator.
  NsHistogram tick_ns;  ///< Interval between successive assign() calls.
  std::int64_t assign_calls = 0;
  double assign_ns_sum = 0.0;
  std::int64_t placement_changes = 0;  ///< assign() calls that migrated.
  std::int64_t migrations = 0;
  // Managers.
  ManagerStats core;
  ManagerStats mphars;
  // Backend (mock_linux wrapper).
  std::int64_t dvfs_writes = 0;
  double dvfs_ns_sum = 0.0;
  std::int64_t placements = 0;
  double place_ns_sum = 0.0;
  std::int64_t backend_ticks = 0;
  double backend_tick_ns_sum = 0.0;  ///< Tick time outside the manager.
  void merge(const ProbeStats& other);
};

/// Which probes are armed. `wrap_variants` without `time_calls` only
/// counts (cheap: no clock reads); `time_calls` adds the timings.
struct ProbeConfig {
  bool wrap_variants = false;
  bool wrap_backend = false;
  bool time_calls = false;
};

/// Registers the wrapping variant and backend factories. Call once at
/// start-up, before any experiment runs.
void install_probes();

/// Arms the probes for the following runs (never while one is running).
void set_probe_config(const ProbeConfig& config);

/// Returns what the probes collected and clears it. Wrappers merge into
/// the shared totals when the run that owns them ends.
ProbeStats take_probe_stats();

/// An OS-scheduler factory for ExperimentBuilder::os_scheduler: stock GTS,
/// optionally slowed by a fixed busy-wait per assign() (the sensitivity
/// self-check), optionally timed.
std::function<std::unique_ptr<hars::Scheduler>()> probed_gts_factory(
    bool timed, std::int64_t assign_delay_ns);

}  // namespace perfbench
