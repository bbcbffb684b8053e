#include "exp/variant_registry.hpp"

#include <map>
#include <utility>

#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "exp/experiment.hpp"
#include "exp/static_optimal.hpp"
#include "mphars/cons_i.hpp"
#include "mphars/mphars_manager.hpp"

namespace hars {

std::vector<TracePoint> VariantInstance::trace(AppId) const { return {}; }

std::optional<SystemState> VariantInstance::current_state() const {
  return std::nullopt;
}

std::optional<SystemState> VariantInstance::static_state() const {
  return std::nullopt;
}

unsigned tuning_fields(const VariantTuning& t) {
  unsigned fields = 0;
  if (t.scheduler) fields |= kTuneScheduler;
  if (t.predictor) fields |= kTunePredictor;
  if (t.policy) fields |= kTunePolicy;
  if (t.search_distance) fields |= kTuneSearchDistance;
  if (t.adapt_period) fields |= kTuneAdaptPeriod;
  if (t.r0) fields |= kTuneR0;
  if (t.learn_ratio) fields |= kTuneLearnRatio;
  return fields;
}

const char* tuning_field_name(TuningField field) {
  switch (field) {
    case kTuneScheduler: return "scheduler";
    case kTunePredictor: return "predictor";
    case kTunePolicy: return "policy";
    case kTuneSearchDistance: return "search_distance";
    case kTuneAdaptPeriod: return "adapt_period";
    case kTuneR0: return "assumed_ratio";
    case kTuneLearnRatio: return "learn_ratio";
  }
  return "?";
}

namespace {

constexpr unsigned kHarsTuning = kTuneScheduler | kTunePredictor | kTunePolicy |
                                 kTuneSearchDistance | kTuneAdaptPeriod |
                                 kTuneR0 | kTuneLearnRatio;
constexpr unsigned kConsTuning = kTuneAdaptPeriod | kTuneR0;
constexpr unsigned kMpHarsTuning = kTuneScheduler | kTuneSearchDistance |
                                   kTuneAdaptPeriod | kTuneR0;

/// Baseline: the full machine at top frequency under the OS scheduler —
/// no manager at all.
class BaselineInstance final : public VariantInstance {};

/// SO: the offline oracle's state, applied once and held for the run.
class StaticOptimalInstance final : public VariantInstance {
 public:
  explicit StaticOptimalInstance(SystemState state) : state_(state) {}
  std::optional<SystemState> static_state() const override { return state_; }
  std::optional<SystemState> current_state() const override { return state_; }

 private:
  SystemState state_;
};

std::unique_ptr<VariantInstance> make_static_optimal(
    const VariantSetup& setup) {
  StaticOptimalOptions so;
  so.threads = setup.spec.threads;
  so.seed = setup.spec.seed;
  so.platform = setup.spec.platform;
  // The oracle sweep itself runs offline in throwaway simulators (see
  // find_static_optimal), so SO works on any backend: only the chosen
  // state is applied to the live platform.
  const StaticOptimalResult so_result = find_static_optimal(
      *setup.spec.apps.front().bench, setup.targets.front(), so);
  const Machine& m = setup.backend.topology();
  setup.backend.set_dvfs_level(m.fastest_cluster(), so_result.state.big_freq);
  setup.backend.set_dvfs_level(m.slowest_cluster(),
                               so_result.state.little_freq);
  CpuMask allowed;
  const CoreId lf = m.slowest_mask().first();
  for (int i = 0; i < so_result.state.little_cores; ++i) allowed.set(lf + i);
  const CoreId bf = m.fastest_mask().first();
  for (int i = 0; i < so_result.state.big_cores; ++i) allowed.set(bf + i);
  setup.backend.place_app(setup.app_ids.front(), allowed);
  return std::make_unique<StaticOptimalInstance>(so_result.state);
}

/// The single-application HARS manager, with the variant's paper
/// configuration adjusted by the experiment's typed tuning.
class HarsInstance final : public VariantInstance {
 public:
  HarsInstance(const VariantSetup& setup, HarsVariant variant)
      : managed_app_(setup.app_ids.front()) {
    RuntimeManagerConfig config = config_for_variant(variant);
    // Calibration default: the platform's assumed fastest:slowest ratio
    // (the paper's r0 = 3/2 on the Exynos preset).
    config.r0 = setup.spec.platform.assumed_ratio();
    const VariantTuning& t = setup.spec.tuning;
    if (t.scheduler) config.scheduler = *t.scheduler;
    if (t.predictor) config.predictor = *t.predictor;
    if (t.policy) config.policy = *t.policy;
    if (t.search_distance) config.exhaustive_d = *t.search_distance;
    if (t.adapt_period) config.adapt_period = *t.adapt_period;
    if (t.r0) config.r0 = *t.r0;
    if (t.learn_ratio) config.learn_ratio = *t.learn_ratio;
    const PowerCoeffTable coeffs = profile_power(
        setup.backend.topology(), setup.backend.profiling_model());
    auto manager = std::make_unique<RuntimeManager>(
        setup.backend, setup.app_ids.front(), setup.targets.front(), coeffs,
        config);
    manager_ = manager.get();
    inner_ = std::move(manager);
  }

  std::vector<TracePoint> trace(AppId) const override {
    return manager_->trace();
  }
  std::optional<SystemState> current_state() const override {
    return manager_->current_state();
  }
  std::int64_t adaptations() const override { return manager_->adaptations(); }

  /// Single-app manager: if *our* app departs, go silent for the rest of
  /// the run (background departures are none of our business).
  void on_app_kill(AppId app) override {
    if (app == managed_app_) mute_inner();
  }

 private:
  AppId managed_app_;
  RuntimeManager* manager_ = nullptr;
};

class ConsInstance final : public VariantInstance {
 public:
  explicit ConsInstance(const VariantSetup& setup)
      : adapt_period_(setup.spec.tuning.adapt_period.value_or(5)) {
    ConsIConfig config;
    config.r0 = setup.spec.platform.assumed_ratio();
    const VariantTuning& t = setup.spec.tuning;
    if (t.r0) config.r0 = *t.r0;
    auto manager = std::make_unique<ConsIManager>(setup.backend, config);
    for (std::size_t i = 0; i < setup.app_ids.size(); ++i) {
      manager->register_app(setup.app_ids[i],
                            ConsIAppConfig{setup.targets[i], adapt_period_});
    }
    manager_ = manager.get();
    inner_ = std::move(manager);
  }

  std::vector<TracePoint> trace(AppId app) const override {
    return manager_->trace(app);
  }
  std::optional<SystemState> current_state() const override {
    return manager_->global_state();
  }

  void on_app_spawn(AppId app, const PerfTarget& target) override {
    manager_->register_app(app, ConsIAppConfig{target, adapt_period_});
  }
  void on_app_kill(AppId app) override { manager_->unregister_app(app); }
  void on_app_target(AppId app, const PerfTarget& target) override {
    manager_->set_app_target(app, target);
  }

 private:
  int adapt_period_;
  ConsIManager* manager_ = nullptr;
};

class MpHarsInstance final : public VariantInstance {
 public:
  MpHarsInstance(const VariantSetup& setup, SearchPolicy policy)
      : adapt_period_(setup.spec.tuning.adapt_period.value_or(5)),
        scheduler_(setup.spec.tuning.scheduler.value_or(
            ThreadSchedulerKind::kChunk)) {
    MpHarsConfig config;
    config.policy = policy;
    config.r0 = setup.spec.platform.assumed_ratio();
    const VariantTuning& t = setup.spec.tuning;
    if (t.search_distance) config.exhaustive_d = *t.search_distance;
    if (t.r0) config.r0 = *t.r0;
    const PowerCoeffTable coeffs = profile_power(
        setup.backend.topology(), setup.backend.profiling_model());
    auto manager =
        std::make_unique<MpHarsManager>(setup.backend, coeffs, config);
    for (std::size_t i = 0; i < setup.app_ids.size(); ++i) {
      manager->register_app(
          setup.app_ids[i],
          MpHarsAppConfig{setup.targets[i], adapt_period_, scheduler_});
    }
    manager_ = manager.get();
    inner_ = std::move(manager);
  }

  std::vector<TracePoint> trace(AppId app) const override {
    const auto retired = retired_traces_.find(app);
    if (retired != retired_traces_.end()) return retired->second;
    return manager_->trace(app);
  }
  std::int64_t adaptations() const override { return manager_->adaptations(); }

  void on_app_spawn(AppId app, const PerfTarget& target) override {
    manager_->register_app(app, MpHarsAppConfig{target, adapt_period_,
                                                scheduler_});
  }
  void on_app_kill(AppId app) override {
    // The registry node (and its trace) dies with the unregistration;
    // keep the trace so post-run queries still see the departed app.
    retired_traces_[app] = manager_->trace(app);
    manager_->unregister_app(app);
  }
  void on_app_target(AppId app, const PerfTarget& target) override {
    manager_->set_app_target(app, target);
  }

 private:
  int adapt_period_;
  ThreadSchedulerKind scheduler_;
  MpHarsManager* manager_ = nullptr;
  std::map<AppId, std::vector<TracePoint>> retired_traces_;
};

constexpr int kManyApps = 64;

}  // namespace

VariantRegistry::VariantRegistry() {
  register_variant("Baseline", VariantTraits{1, kManyApps, 0, false},
                   [](const VariantSetup&) {
                     return std::make_unique<BaselineInstance>();
                   });
  register_variant("SO",
                   VariantTraits{1, 1, 0, /*requires_parsec=*/true},
                   make_static_optimal);
  const auto hars_entry = [this](const char* name, HarsVariant variant) {
    register_variant(name, VariantTraits{1, 1, kHarsTuning, false},
                     [variant](const VariantSetup& setup) {
                       return std::make_unique<HarsInstance>(setup, variant);
                     });
  };
  hars_entry("HARS-I", HarsVariant::kHarsI);
  hars_entry("HARS-E", HarsVariant::kHarsE);
  hars_entry("HARS-EI", HarsVariant::kHarsEI);
  register_variant(
      "CONS-I",
      VariantTraits{1, kManyApps, kConsTuning, false},
      [](const VariantSetup& setup) {
        return std::make_unique<ConsInstance>(setup);
      });
  const auto mphars_entry = [this](const char* name, SearchPolicy policy) {
    register_variant(name,
                     VariantTraits{1, kManyApps, kMpHarsTuning, false},
                     [policy](const VariantSetup& setup) {
                       return std::make_unique<MpHarsInstance>(setup, policy);
                     });
  };
  mphars_entry("MP-HARS-I", SearchPolicy::kIncremental);
  mphars_entry("MP-HARS-E", SearchPolicy::kExhaustive);
}

VariantRegistry& VariantRegistry::instance() {
  static VariantRegistry registry;
  return registry;
}

void VariantRegistry::register_variant(std::string name, VariantTraits traits,
                                       VariantFactory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (VariantEntry& entry : entries_) {
    if (entry.name == name) {
      entry.traits = traits;
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back({std::move(name), traits, std::move(factory)});
}

const VariantEntry* VariantRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const VariantEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> VariantRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const VariantEntry& entry : entries_) out.push_back(entry.name);
  return out;
}

}  // namespace hars
