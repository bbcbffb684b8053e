// The experiment pipeline's app-slot table and its scenario driver.
//
// Every application of a run lives in one AppSlot, whatever its origin:
// a static app (spawned at t = 0), a scenario spawn (spawned when its
// event comes due) or a live workload (registered with the backend).
//
// ScenarioRuntime drives the slots of a scenario run through the
// pipeline's Backend. Installed as the SimEngine's tick hook by
// Experiment::run() (with next_due(), so quiet spans run up to the next
// event or sample), it dispatches due events at each tick boundary —
// spawn (create app, add to engine, set target, notify the variant),
// kill (notify the variant, reclaim the app's threads), set_target /
// set_phase / hotplug — and, when a TraceSink is attached, samples the
// per-app state on the configured cadence. Dispatch order is event
// order; an event at time t is applied at the first tick boundary with
// start >= t, so its effect is visible to that whole tick.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "exp/experiment.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace_sink.hpp"

namespace hars {

/// One application of a run and the app or workload it materialized.
/// On the simulator the slot builds its App through `factory`; a live
/// backend runs a workload shaped like the app instead.
struct AppSlot {
  std::string label;
  AppFactory factory;
  int threads = 0;
  std::uint64_t seed = 0;          ///< Spec seed + slot index.
  /// The scenario spawn this slot stands for; null outside scenarios.
  const ScenarioEvent* spawn_event = nullptr;
  std::unique_ptr<App> app;        ///< Owned; outlives engine removal.
  AppId id = -1;                   ///< Backend id once spawned.
  PerfTarget target;               ///< Current target.
  TimeUs spawn_time = 0;
  TimeUs depart_time = -1;         ///< -1: alive at run end.
  bool spawned = false;
  bool alive = false;
};

/// Puts the slot's app on the backend at `now`: a simulated app joins the
/// engine, a live workload is registered. Does not install the target.
void spawn_app(AppSlot& slot, Backend& backend, TimeUs now);

/// The slot's heartbeat channel (departed simulated apps keep theirs).
HeartbeatMonitor& slot_heartbeats(const AppSlot& slot, Backend& backend);

/// One slot per scenario spawn, in scenario order (which defines the
/// seed offset); targets come from resolve_scenario_targets.
std::vector<AppSlot> scenario_slots(const ExperimentSpec& spec,
                                    const Scenario& scenario);

/// Per-spawn target resolution (spawn order): an explicit window wins;
/// otherwise fraction (spawn's or the spec default) of the standalone
/// calibrated maximum on the spec's platform, seeded like the app itself.
/// The calibrations not cached yet run in parallel (calibrate_benchmarks).
std::vector<PerfTarget> resolve_scenario_targets(const ExperimentSpec& spec,
                                                 const Scenario& scenario);

class ScenarioRuntime {
 public:
  /// `slots` are scenario_slots() with the t = 0 apps already spawned
  /// (the variant factories expect the initial apps registered); the
  /// runtime dispatches the events after t = 0. `backend` must be a
  /// simulated one.
  ScenarioRuntime(const Scenario& scenario, Backend& backend,
                  std::vector<AppSlot>& slots);

  void attach_variant(VariantInstance* variant) { variant_ = variant; }
  /// Writes the capture's meta line (the run's re-run recipe) and samples
  /// into `sink` from then on.
  void attach_capture(TraceSink& sink, const ExperimentSpec& spec);

  /// The SimEngine tick hook: dispatches due events, then samples.
  void on_tick(TimeUs now);

  /// The hook's due time: the earlier of the next event's time and the
  /// next capture sample; SimEngine::kNeverDue when neither is left.
  TimeUs next_due() const;

  /// Samples the final state at run end (always, regardless of cadence).
  void finish(TimeUs now);

 private:
  void dispatch(const ScenarioEvent& event, TimeUs now);
  AppSlot& slot_of(const std::string& label);
  void sample(TimeUs now);

  const Scenario& scenario_;
  Backend& backend_;
  SimEngine& engine_;
  std::vector<AppSlot>& slots_;         ///< One per spawn, scenario order.
  VariantInstance* variant_ = nullptr;
  TraceSink* capture_ = nullptr;
  std::size_t next_event_ = 0;          ///< Cursor into scenario_.events.
  TimeUs next_sample_ = 0;              ///< Tick start of the next sample.
};

}  // namespace hars
