// CONS-I: the conservative incremental adaptation baseline (thesis §4.1.1,
// §5.2.1) — the "naive model" for multiple applications.
//
// All applications share every system resource (online core counts and
// cluster frequencies) under the Linux HMP scheduler; nothing is estimated.
// The model keeps the global system-state list sorted by the performance
// score
//     perfScore = C_B * r0 * (f_B / f_0) + C_L * (f_L / f_0)
// and, when an application in its adaptation period is out of its window,
// steps to the state with the nearest higher (INC) or lower (DEC) score —
// the smallest possible system performance change. Decisions follow the
// interference-aware policy (Table 4.3): decreases require every other
// application to overperform and trigger a freeze period.
#pragma once

#include <memory>
#include <vector>

#include "core/system_state.hpp"
#include "core/runtime_manager.hpp"  // TracePoint
#include "hmp/sim_engine.hpp"
#include "mphars/freeze_policy.hpp"

namespace hars {

struct ConsIConfig {
  double r0 = 1.5;
};

struct ConsIAppConfig {
  PerfTarget target;
  int adapt_period = 5;
};

/// perfScore of a global state (freq dims are level indices).
double cons_perf_score(const Machine& machine, const SystemState& s, double r0,
                       double f0_ghz);

class ConsIManager final : public PollingManager {
 public:
  /// The score unit: perfScore counts cores at this frequency.
  static constexpr double kF0Ghz = 1.0;
  /// The raw cross-product of (C_B, C_L, f_B, f_L) yields hundreds of
  /// near-duplicate perfScores; stepping through every one would take the
  /// incremental model minutes to descend. The configuration ladder keeps
  /// only states whose score differs by at least this much from the
  /// previous kept state (one "step" of system performance).
  static constexpr double kMinScoreStep = 0.5;
  /// Modeled CPU cost of one incremental step decision, on top of the
  /// poll's kPollCostUs.
  static constexpr TimeUs kStepCostUs = 200;

  /// The model drives the platform exclusively through `backend` (DVFS,
  /// hotplug, heartbeats) — simulated and live backends interchange.
  explicit ConsIManager(Backend& backend, ConsIConfig config = {});

  void register_app(AppId app, const ConsIAppConfig& app_config);

  /// Removes a departed app from the decision loop (its trace is kept for
  /// post-run queries). Returns false for unknown apps.
  bool unregister_app(AppId app);

  /// Moves an app's performance target (scenario set_target events).
  /// Returns false for unknown apps.
  bool set_app_target(AppId app, PerfTarget target);

  const SystemState& global_state() const { return state_; }
  const std::vector<TracePoint>& trace(AppId app) const;

 private:
  struct AppEntry {
    AppId app = -1;
    bool alive = true;  ///< False once unregistered (departed).
    PerfTarget target;
    int adapt_period = 5;
    std::int64_t last_seen_hb = -1;
    double rate = 0.0;
    int freezing_cnt = 0;
    std::vector<TracePoint> trace;
  };

  TimeUs poll() override;
  void apply_state(const SystemState& s);
  void build_state_list();
  /// Index into states_ holding the current state.
  std::size_t current_index() const;

  Backend& backend_;
  ConsIConfig config_;
  std::vector<AppEntry> apps_;
  std::vector<SystemState> states_;  ///< Sorted ascending by perfScore.
  std::vector<double> scores_;
  SystemState state_;
};

}  // namespace hars
