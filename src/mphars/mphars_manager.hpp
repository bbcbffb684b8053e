// The MP-HARS runtime manager (thesis §4, Algorithm 3).
//
// Each registered application is managed "by its own HARS": it owns its
// cores exclusively (resource partitioning, Algorithm 4) while cluster
// frequencies remain shared and are governed by the interference-aware
// adaptation policy (Table 4.3 + freezing counts). Per iteration the
// manager walks the application list, updates freezing counters on new
// heartbeats, refreshes the clusters' frozen flags, and runs the HARS
// search for any application in its adaptation period — with the state
// space narrowed to the app's own cores plus free cores, and frequency
// dimensions constrained by cluster controllability.
#pragma once

#include <memory>
#include <vector>

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/runtime_manager.hpp"
#include "core/search.hpp"
#include "hmp/sim_engine.hpp"
#include "mphars/core_allocator.hpp"
#include "mphars/freeze_policy.hpp"
#include "mphars/registry.hpp"

namespace hars {

/// MP-HARS manages each application by its own HARS, so it shares HARS's
/// fixed parameters: kExhaustiveWindow, kSettleBeats and the search's
/// overhead model (core/runtime_manager.hpp).
struct MpHarsConfig {
  SearchPolicy policy = SearchPolicy::kExhaustive;
  int exhaustive_d = kExhaustiveDistance;
  double r0 = kAssumedR0;
};

struct MpHarsAppConfig {
  PerfTarget target;
  int adapt_period = kAdaptPeriodBeats;
  ThreadSchedulerKind scheduler = ThreadSchedulerKind::kChunk;
};

class MpHarsManager final : public PollingManager {
 public:
  /// The manager drives the platform exclusively through `backend` (DVFS,
  /// placement, heartbeats) — simulated and live backends interchange.
  MpHarsManager(Backend& backend, PowerCoeffTable coeffs,
                MpHarsConfig config = {});

  /// Registers an app; initial allocation is an even split of each cluster
  /// across registered apps (re-applied on every registration).
  void register_app(AppId app, const MpHarsAppConfig& app_config);

  /// Removes an app (it exited): its cores return to the free pool, where
  /// the remaining applications' searches can claim them on their next
  /// adaptation. Returns false for unknown apps.
  bool unregister_app(AppId app);

  /// Moves an app's performance target (scenario set_target events).
  /// Returns false for unknown apps.
  bool set_app_target(AppId app, PerfTarget target);

  /// Current state of one app (own cores + shared frequencies).
  SystemState app_state(AppId app) const;
  const std::vector<TracePoint>& trace(AppId app) const;
  const AppRegistry& registry() const { return registry_; }
  std::int64_t adaptations() const { return adaptations_; }

 private:
  TimeUs poll() override;
  TimeUs adapt_app(AppNode& node);
  void apply_app_state(AppNode& node, const SystemState& next);
  SystemState current_state_of(const AppNode& node) const;
  /// Aggregate status of the other apps sharing `big` (true) or little.
  PerfStatus others_status(const AppNode& node, bool big_cluster) const;
  /// Does any other app own cores on the cluster?
  bool cluster_shared(const AppNode& node, bool big_cluster) const;
  void record_trace(AppNode& node);

  Backend& backend_;
  AppRegistry registry_;
  PerfEstimator perf_est_;
  PowerEstimator power_est_;
  MpHarsConfig config_;
  StateSpace machine_space_;
  /// Search memoization shared by every app's searches: one epoch for
  /// the manager's lifetime, opened by the constructor.
  SearchScratch scratch_;
  std::int64_t adaptations_ = 0;
};

}  // namespace hars
