// VariantRegistry: the string-keyed catalogue of runtime versions.
//
// Every runtime version the evaluation compares — Baseline, the static
// optimal, the single-application HARS variants and the multi-application
// managers — registers a factory under its figure name ("HARS-EI",
// "MP-HARS-E", ...). The factory receives the configured experiment (the
// engine, registered apps and resolved targets) and returns an owned
// VariantInstance: a ManagerHook wrapper that owns the concrete manager
// (or nothing, for Baseline) and exposes the uniform queries the
// experiment pipeline needs afterwards (behaviour traces, chosen states,
// adaptation counts).
//
// Adding a new runtime version to the evaluation is one register_variant
// call — no runner fork, no bench-binary edits: every registry entry is
// immediately runnable from Experiment::run() and `hars_sim --version`.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime_manager.hpp"  // TracePoint, ManagerHook via sim_engine.
#include "core/search.hpp"
#include "core/system_state.hpp"

namespace hars {

struct ExperimentSpec;  // experiment.hpp

/// Typed tuning overrides for a variant (replaces the old -1 int
/// sentinels of SingleRunOptions). Unset fields keep the variant default.
struct VariantTuning {
  std::optional<ThreadSchedulerKind> scheduler;
  std::optional<PredictorKind> predictor;
  std::optional<SearchPolicy> policy;
  std::optional<int> search_distance;  ///< Manhattan budget d.
  std::optional<int> adapt_period;     ///< Heartbeats between checks.
  std::optional<double> r0;            ///< Assumed big:little ratio.
  std::optional<bool> learn_ratio;     ///< Online ratio learning.
};

/// Which tuning fields a variant understands; builder validation rejects
/// a set field the chosen variant would silently ignore.
enum TuningField : unsigned {
  kTuneScheduler = 1u << 0,
  kTunePredictor = 1u << 1,
  kTunePolicy = 1u << 2,
  kTuneSearchDistance = 1u << 3,
  kTuneAdaptPeriod = 1u << 4,
  kTuneR0 = 1u << 5,
  kTuneLearnRatio = 1u << 6,
};

/// Bitmask of the TuningField bits set in `tuning`.
unsigned tuning_fields(const VariantTuning& tuning);

/// Human-readable name of one TuningField bit (for error messages).
const char* tuning_field_name(TuningField field);

struct VariantTraits {
  int min_apps = 1;
  int max_apps = 1;
  unsigned accepted_tuning = 0;
  /// The variant needs the benchmark identity (e.g. the static optimal's
  /// offline oracle sweep) — only PARSEC apps qualify.
  bool requires_parsec = false;
};

/// What a variant factory hands back: a ManagerHook that owns the
/// concrete runtime manager (nothing for Baseline / the static optimal)
/// plus the uniform post-run query surface.
class VariantInstance : public ManagerHook {
 public:
  ~VariantInstance() override = default;

  TimeUs on_tick(TimeUs now) override {
    return (inner_ && !inner_muted_) ? inner_->on_tick(now) : 0;
  }

  /// The owned manager's due time; never while muted or manager-less.
  TimeUs next_due() const override {
    return (inner_ && !inner_muted_) ? inner_->next_due() : kNeverDue;
  }

  /// The owned manager's answer; false while muted or manager-less.
  bool idle_poll(TimeUs& period, TimeUs& cost) const override {
    return inner_ && !inner_muted_ && inner_->idle_poll(period, cost);
  }
  void skip_idle_polls(TimeUs due) override {
    if (inner_ && !inner_muted_) inner_->skip_idle_polls(due);
  }

  // --- Scenario hooks (dynamic app sets) ---
  /// A scenario spawned `app` mid-run; the engine already has it and its
  /// target is installed. Multi-app managers register it; the default
  /// ignores it (single-app variants keep managing their original app
  /// while background apps come and go).
  virtual void on_app_spawn(AppId app, const PerfTarget& target) {
    (void)app;
    (void)target;
  }

  /// `app` is departing; called *before* the engine reclaims its threads.
  /// Multi-app managers unregister it; a single-app manager whose own app
  /// departs mutes itself (mute_inner) so it never reads the dead slot.
  virtual void on_app_kill(AppId app) { (void)app; }

  /// A scenario moved `app`'s target; the heartbeat monitor is already
  /// updated (which is all the single-app HARS manager reads). Managers
  /// that cache per-app targets refresh them here.
  virtual void on_app_target(AppId app, const PerfTarget& target) {
    (void)app;
    (void)target;
  }

  /// True when a runtime manager is attached (and should be installed on
  /// the engine).
  bool active() const { return inner_ != nullptr; }

  /// The owned concrete manager, for callers that need to reach past the
  /// uniform surface (e.g. a dynamic_cast in an example). Null for
  /// manager-less variants.
  ManagerHook* hook() { return inner_.get(); }

  /// Behaviour trace of one app (empty when the variant records none).
  virtual std::vector<TracePoint> trace(AppId app) const;

  /// Current chosen state, for variants with a single global state.
  virtual std::optional<SystemState> current_state() const;

  /// The offline-chosen state, for the static optimal.
  virtual std::optional<SystemState> static_state() const;

  virtual std::int64_t adaptations() const { return 0; }

 protected:
  /// Permanently stops forwarding on_tick to the owned manager (post-run
  /// queries like trace() stay valid — they must not touch the engine).
  void mute_inner() { inner_muted_ = true; }

  std::unique_ptr<ManagerHook> inner_;

 private:
  bool inner_muted_ = false;
};

/// Everything a factory may consult: the backend (apps already added,
/// targets installed), the per-app ids/targets in registration order and
/// the full experiment spec (tuning, threads, seed, benchmark identities).
/// The backend is a SimBackend for simulated runs and a live backend
/// (mock_linux / linux) under hars_agentd; factories that genuinely need
/// the simulator (e.g. the static optimal's offline oracle) must check
/// backend.sim_engine() != nullptr and fail clearly otherwise.
struct VariantSetup {
  Backend& backend;
  const ExperimentSpec& spec;
  const std::vector<AppId>& app_ids;
  const std::vector<PerfTarget>& targets;
};

/// Must return a non-null instance (a plain VariantInstance for
/// manager-less variants); Experiment::run() rejects a null return.
using VariantFactory =
    std::function<std::unique_ptr<VariantInstance>(const VariantSetup&)>;

struct VariantEntry {
  std::string name;
  VariantTraits traits;
  VariantFactory factory;
};

class VariantRegistry {
 public:
  /// The process-wide registry, with the paper's eight runtime versions
  /// (Baseline, SO, HARS-I/E/EI, CONS-I, MP-HARS-I/E) pre-registered.
  /// Construction is once-only (C++ magic static) and every accessor
  /// locks, so concurrent Experiment::run() calls from sweep-pool workers
  /// can look variants up safely. Entries live in a deque, so a pointer
  /// returned by find() stays valid across later registrations — but
  /// replacing a variant by name while another thread runs it is still a
  /// race; register new variants before launching a parallel sweep.
  static VariantRegistry& instance();

  /// Registers (or replaces) a variant under `name`.
  void register_variant(std::string name, VariantTraits traits,
                        VariantFactory factory);

  /// Null when `name` is unknown.
  const VariantEntry* find(std::string_view name) const;

  /// All registered names, in registration order.
  std::vector<std::string> names() const;

 private:
  VariantRegistry();
  mutable std::mutex mutex_;
  std::deque<VariantEntry> entries_;
};

/// RAII registration helper so new variants can self-register from any
/// translation unit:
///   static VariantRegistrar reg("MY-VARIANT", traits, factory);
struct VariantRegistrar {
  VariantRegistrar(std::string name, VariantTraits traits,
                   VariantFactory factory) {
    VariantRegistry::instance().register_variant(std::move(name), traits,
                                                 std::move(factory));
  }
};

}  // namespace hars
