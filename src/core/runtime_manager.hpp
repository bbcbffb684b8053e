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

/// After a state change the heartbeat window mixes old- and new-state
/// rates; adapting on that stale signal oscillates (§3.1.3 discusses
/// HARS-E's oscillation risk). HARS and MP-HARS wait this many fresh
/// heartbeats after a move before adapting again (the monitor window).
inline constexpr int kSettleBeats = 10;

/// Heartbeats between adaptation checks (Algorithm 1's isAdaptPeriod):
/// every manager's per-app default.
inline constexpr int kAdaptPeriodBeats = 5;

/// The modeled CPU cost of one HARS or MP-HARS search, on top of the
/// poll's PollingManager::kPollCostUs: a fixed part plus one estimate per
/// candidate state (the overhead model, calibrated so Figure 5.3(b) lands
/// in the paper's "under 6% at d = 9" envelope).
inline constexpr TimeUs kAdaptFixedCostUs = 500;
inline constexpr TimeUs kCostPerCandidateUs = 400;

struct RuntimeManagerConfig {
  SearchPolicy policy = SearchPolicy::kExhaustive;
  ThreadSchedulerKind scheduler = ThreadSchedulerKind::kChunk;
  int exhaustive_d = kExhaustiveDistance;  ///< d for HARS-E.
  int adapt_period = kAdaptPeriodBeats;    ///< Heartbeats between checks.
  double r0 = kAssumedR0;                  ///< Assumed big:little ratio.

  // --- §3.1.4 / §5.1.2 extensions (all off by default: paper behaviour) ---
  /// Rate prediction model; kKalman smooths noisy heartbeat windows.
  PredictorKind predictor = PredictorKind::kLastValue;
  /// Learn the big:little ratio online instead of trusting r0 (fixes the
  /// blackscholes misprediction).
  bool learn_ratio = false;

  // The overhead model under the names perfbench's cost decoder reads.
  static constexpr TimeUs poll_cost_us = PollingManager::kPollCostUs;
  static constexpr TimeUs cost_per_candidate_us = kCostPerCandidateUs;
  static constexpr TimeUs adapt_fixed_cost_us = kAdaptFixedCostUs;
};

class RuntimeManager final : public PollingManager {
 public:
  /// `target` is installed on the app's heartbeat monitor. The coefficient
  /// table comes from a profiling campaign (profile_power). The manager
  /// talks to the platform exclusively through `backend` (DVFS, placement,
  /// heartbeats) — simulated and live backends are interchangeable here.
  RuntimeManager(Backend& backend, AppId app, PerfTarget target,
                 PowerCoeffTable coeffs, RuntimeManagerConfig config = {});

  const SystemState& current_state() const { return state_; }
  const std::vector<TracePoint>& trace() const { return trace_; }
  std::int64_t adaptations() const { return adaptations_; }

  /// The ratio currently used by the performance estimator (changes over
  /// time when learn_ratio is on).
  double current_r0() const { return perf_est_.r0(); }

  /// Applies a state immediately (also used by the static-optimal runner).
  void apply_state(const SystemState& state);

 private:
  TimeUs poll() override;

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
  std::int64_t last_seen_hb_ = -1;
  std::int64_t last_change_hb_ = -1;
  std::int64_t adaptations_ = 0;
  std::vector<TracePoint> trace_;
  std::unique_ptr<RatePredictor> predictor_;
  std::optional<RatioLearner> ratio_learner_;
};

}  // namespace hars
