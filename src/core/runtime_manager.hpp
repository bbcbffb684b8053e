// The HARS runtime manager (thesis Algorithm 1).
//
// A user-level daemon: it polls the application's heartbeat channel, and on
// every adaptation period checks whether the windowed heartbeat rate sits
// inside the target window. When |rate - t.avg| > (t.max - t.min)/2 it runs
// the search function and applies the chosen system state — setting cluster
// frequencies, picking the core set, and pinning threads through the chunk
// or interleaving scheduler.
//
// Overhead model: the manager's polling and per-candidate estimation costs
// are reported to the SimEngine, which charges them to the manager core
// (they both consume capacity and burn power) — this is what Figure 5.3(b)
// measures as HARS's CPU utilization.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/ratio_learner.hpp"
#include "core/search.hpp"
#include "core/system_state.hpp"
#include "core/tabu_search.hpp"
#include "core/thread_scheduler.hpp"
#include "core/workload_predictor.hpp"
#include "hmp/sim_engine.hpp"

namespace hars {

/// One point of the behaviour traces in Figures 5.5-5.7.
struct TracePoint {
  std::int64_t hb_index = 0;
  double hps = 0.0;      ///< Windowed heartbeat rate.
  int big_cores = 0;     ///< Allocated big cores.
  int little_cores = 0;  ///< Allocated little cores.
  double big_freq_ghz = 0.0;
  double little_freq_ghz = 0.0;
};

struct RuntimeManagerConfig {
  SearchPolicy policy = SearchPolicy::kExhaustive;
  ThreadSchedulerKind scheduler = ThreadSchedulerKind::kChunk;
  int exhaustive_window = 4;  ///< m = n for HARS-E.
  int exhaustive_d = 7;       ///< d for HARS-E.
  int adapt_period = 5;       ///< Heartbeats between adaptation checks.
  /// After a state change the heartbeat window mixes old- and new-state
  /// rates; adapting on that stale signal oscillates (§3.1.3 discusses
  /// HARS-E's oscillation risk). Wait this many fresh heartbeats after a
  /// move before adapting again (matches the monitor window).
  int settle_beats = 10;
  double r0 = 1.5;            ///< Assumed big:little speed ratio.

  // --- §3.1.4 / §5.1.2 extensions (all off by default: paper behaviour) ---
  /// Rate prediction model; kKalman smooths noisy heartbeat windows.
  PredictorKind predictor = PredictorKind::kLastValue;
  /// Learn the big:little ratio online instead of trusting r0 (fixes the
  /// blackscholes misprediction).
  bool learn_ratio = false;
  /// Trajectory parameters when policy == SearchPolicy::kTabu.
  TabuParams tabu;

  // Overhead model (calibrated so Figure 5.3(b) lands in the paper's
  // "under 6% at d = 9" envelope).
  TimeUs poll_period_us = 5 * kUsPerMs;
  TimeUs poll_cost_us = 60;
  TimeUs cost_per_candidate_us = 400;
  TimeUs adapt_fixed_cost_us = 500;
};

class RuntimeManager : public ManagerHook {
 public:
  /// `target` is installed on the app's heartbeat monitor. The coefficient
  /// table comes from a profiling campaign (profile_power). The manager
  /// talks to the platform exclusively through `backend` (DVFS, placement,
  /// heartbeats) — simulated and live backends are interchangeable here.
  RuntimeManager(Backend& backend, AppId app, PerfTarget target,
                 PowerCoeffTable coeffs, RuntimeManagerConfig config = {});

  TimeUs on_tick(TimeUs now) override;
  TimeUs next_due() const override { return next_poll_; }
  /// A poll that finds no new heartbeat only moves the next poll.
  bool idle_poll(TimeUs& period, TimeUs& cost) const override {
    period = config_.poll_period_us;
    cost = config_.poll_cost_us;
    return true;
  }
  void skip_idle_polls(TimeUs due) override { next_poll_ = due; }

  const SystemState& current_state() const { return state_; }
  const std::vector<TracePoint>& trace() const { return trace_; }
  std::int64_t adaptations() const { return adaptations_; }

  /// The ratio currently used by the performance estimator (changes over
  /// time when learn_ratio is on).
  double current_r0() const { return perf_est_.r0(); }

  /// Applies a state immediately (also used by the static-optimal runner).
  void apply_state(const SystemState& state);

 private:
  /// Core sets for a state: the first C_L little cores and first C_B big
  /// cores of the machine (single-application HARS owns the machine).
  CpuMask big_set(const SystemState& s) const;
  CpuMask little_set(const SystemState& s) const;

  Backend& backend_;
  AppId app_;
  PerfEstimator perf_est_;
  PowerEstimator power_est_;
  RuntimeManagerConfig config_;
  StateSpace space_;

  SystemState state_;
  SearchScratch scratch_;  ///< Search memoization (search_scratch.hpp).
  /// r0 the memo was filled under; NaN until the first search opens it.
  double memo_r0_ = std::numeric_limits<double>::quiet_NaN();
  TimeUs next_poll_ = 0;
  std::int64_t last_seen_hb_ = -1;
  std::int64_t last_change_hb_ = -1;
  std::int64_t adaptations_ = 0;
  std::vector<TracePoint> trace_;
  std::unique_ptr<RatePredictor> predictor_;
  std::optional<RatioLearner> ratio_learner_;
};

}  // namespace hars
