#include "exp/experiment.hpp"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "backend/sim_backend.hpp"
#include "exp/calibration.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/scenario_runtime.hpp"
#include "scenario/trace_sink.hpp"
#include "util/once_cache.hpp"

namespace hars {

std::vector<std::vector<ParsecBenchmark>> multiapp_cases() {
  using B = ParsecBenchmark;
  return {{B::kBodytrack, B::kSwaptions},    // Case 1
          {B::kBlackscholes, B::kSwaptions}, // Case 2
          {B::kFluidanimate, B::kBlackscholes},  // Case 3
          {B::kBodytrack, B::kFluidanimate},     // Case 4
          {B::kFluidanimate, B::kSwaptions},     // Case 5
          {B::kBodytrack, B::kBlackscholes}};    // Case 6
}

namespace {

std::unique_ptr<Scheduler> make_default_scheduler() {
  return std::make_unique<GtsScheduler>();
}

/// The engine + OS scheduler for a measured run.
SimEngine make_engine(const ExperimentSpec& spec) {
  SimConfig config;
  if (spec.audit) config.audit = *spec.audit;
  return SimEngine(spec.platform,
                   spec.make_scheduler ? spec.make_scheduler()
                                       : make_default_scheduler(),
                   config);
}

/// Maximum achievable performance of each app *while running concurrently
/// with its partners* under the baseline (all cores, max frequency, the
/// configured OS scheduler). Multi-app derived targets are fractions of
/// this: with N CPU-bound apps sharing the machine, a fraction of the
/// standalone rate would already be met (or missed) by construction,
/// which is not what §5.2.1 evaluates. Memoized per
/// app-set/machine/duration/threads/seed because every figure re-uses the
/// same probes — but only for PARSEC app sets, whose labels identify
/// their factories (custom factories can share a label).
std::vector<double> probe_baseline_rates(const ExperimentSpec& spec) {
  SimEngine engine(spec.platform, spec.make_scheduler
                                      ? spec.make_scheduler()
                                      : make_default_scheduler());
  std::vector<std::unique_ptr<App>> apps;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    apps.push_back(spec.apps[i].factory(spec.threads, spec.seed + i));
    engine.add_app(apps.back().get());
  }
  engine.run_for(spec.duration);
  std::vector<double> rates;
  for (const auto& app : apps) {
    const auto& history = app->heartbeats().history();
    const TimeUs t0 = history.empty() ? 0 : history.front().time;
    rates.push_back(average_rate(history, t0, engine.now()));
  }
  return rates;
}

std::vector<double> concurrent_baseline_rates(const ExperimentSpec& spec) {
  using Key =
      std::tuple<std::string, std::uint32_t, long long, int, std::uint64_t>;
  static OnceCache<Key, std::vector<double>> cache{"baseline_probe"};
  bool cacheable = !spec.make_scheduler;  // Custom schedulers aren't keyed.
  std::string case_key;
  for (const AppSpec& app : spec.apps) {
    cacheable &= app.bench.has_value();
    case_key += app.label;
    case_key += '+';
  }
  if (!cacheable) return probe_baseline_rates(spec);
  const Key key{case_key, spec.platform.signature_id(),
                static_cast<long long>(spec.duration), spec.threads,
                spec.seed};
  return cache.get_or_compute(key, [&] { return probe_baseline_rates(spec); });
}

/// The run's app slots, none spawned yet: the scenario's spawns, or one
/// t = 0 slot per configured app seeded spec.seed + i.
std::vector<AppSlot> make_slots(const ExperimentSpec& spec) {
  if (spec.scenario) return scenario_slots(spec, *spec.scenario);
  std::vector<AppSlot> slots(spec.apps.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].label = spec.apps[i].label;
    slots[i].factory = spec.apps[i].factory;
    slots[i].threads = spec.threads;
    slots[i].seed = spec.seed + i;
  }
  return slots;
}

/// Every slot's target. Explicit ones win; the rest follow the run:
///  * scenario spawns: per-spawn standalone calibration;
///  * live backends: a probe slice at the boot state, max(duration / 5,
///    1 s) long (the live analogue of the concurrent baseline probe);
///  * steady-state measurement of a single PARSEC app: its standalone
///    calibration (§5.1.1);
///  * any other measurement: the concurrent baseline probe (§5.2.1).
/// The t = 0 apps are already spawned (the live probe runs them).
void resolve_targets(const ExperimentSpec& spec, Backend& backend,
                     std::vector<AppSlot>& slots) {
  if (spec.scenario) {
    const std::vector<PerfTarget> targets =
        resolve_scenario_targets(spec, *spec.scenario);
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i].target = targets[i];
    return;
  }
  std::vector<std::size_t> derived;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (spec.apps[i].target) {
      slots[i].target = *spec.apps[i].target;
    } else {
      derived.push_back(i);
    }
  }
  if (derived.empty()) return;

  if (backend.sim_engine() == nullptr) {
    backend.run_for(std::max<TimeUs>(spec.duration / 5, kUsPerSec));
    for (std::size_t i : derived) {
      const double rate = backend.heartbeats(slots[i].id).rate();
      if (!(rate > 0.0)) {
        throw std::runtime_error(
            "workload \"" + slots[i].label +
            "\" emitted no heartbeats in the live probe on backend \"" +
            spec.backend +
            "\"; cannot derive a target (set one explicitly or lengthen "
            "the duration)");
      }
      slots[i].target = PerfTarget::around(spec.target_fraction * rate);
    }
    return;
  }
  if (spec.protocol == RunProtocol::kSteadyState && spec.apps.size() == 1 &&
      spec.apps.front().bench) {
    const Calibration cal = calibrate_benchmark(
        spec.platform, *spec.apps.front().bench, spec.threads, spec.seed);
    slots[0].target = cal.target_for_fraction(spec.target_fraction);
    return;
  }
  const std::vector<double> rates = concurrent_baseline_rates(spec);
  for (std::size_t i : derived) {
    if (!(rates[i] > 0.0)) {
      // A zero probe rate would derive a {0, 0} target whose zero average
      // silently zeroes every normalized-perf score; fail loudly instead.
      throw std::runtime_error(
          "app \"" + slots[i].label +
          "\" emitted no heartbeats in the baseline probe; cannot derive a "
          "positive performance target (set one explicitly or lengthen the "
          "duration)");
    }
    slots[i].target = PerfTarget::around(spec.target_fraction * rates[i]);
  }
}

/// What the run measured as a whole; every app's metrics share it.
struct RunMeasurement {
  double energy_j = 0.0;         ///< Energy over the measured span.
  double avg_power_w = 0.0;      ///< System power over the measured span.
  double manager_cpu_pct = 0.0;  ///< Manager CPU share of one core.
};

RunMetrics collect_metrics(const HeartbeatMonitor& heartbeats,
                           const PerfTarget& target, TimeUs t0, TimeUs t1,
                           const RunMeasurement& run) {
  RunMetrics m;
  const auto& history = heartbeats.history();
  m.norm_perf = time_weighted_norm_perf(history, target, t0, t1);
  m.avg_rate_hps = average_rate(history, t0, t1);
  m.avg_power_w = run.avg_power_w;
  m.perf_per_watt = m.avg_power_w > 0.0 ? m.norm_perf / m.avg_power_w : 0.0;
  m.manager_cpu_pct = run.manager_cpu_pct;
  m.heartbeats = heartbeats.count();
  m.in_window_fraction = time_in_window_fraction(history, target, t0, t1);
  m.energy_j = run.energy_j;
  const double beats_in_span = m.avg_rate_hps * us_to_sec(t1 - t0);
  m.energy_per_beat_j = beats_in_span > 0.0 ? m.energy_j / beats_in_span : 0.0;
  return m;
}

/// Hands the sampler the live apps, in slot order.
void sample_run(const ExperimentSpec& spec, SimEngine& engine,
                const std::vector<AppSlot>& slots, VariantInstance& instance) {
  std::vector<App*> apps;
  std::vector<AppId> ids;
  for (const AppSlot& slot : slots) {
    if (!slot.alive) continue;
    apps.push_back(slot.app.get());
    ids.push_back(slot.id);
  }
  spec.sampler(RunView{engine, apps, ids, instance, engine.now()});
}

/// Appends one "metrics" record per app to a scenario capture.
void write_capture_metrics(TraceSink& sink, const ExperimentResult& result) {
  for (const AppRunResult& app : result.apps) {
    Record r;
    r.set("kind", "metrics");
    r.set("app", app.label);
    r.set("spawn_us", static_cast<std::int64_t>(app.spawn_time_us));
    r.set("depart_us", static_cast<std::int64_t>(app.depart_time_us));
    r.set("heartbeats", app.metrics.heartbeats);
    r.set("norm_perf", app.metrics.norm_perf);
    r.set("avg_rate_hps", app.metrics.avg_rate_hps);
    r.set("avg_power_w", app.metrics.avg_power_w);
    r.set("perf_per_watt", app.metrics.perf_per_watt);
    r.set("in_window_fraction", app.metrics.in_window_fraction);
    r.set("energy_j", app.metrics.energy_j);
    r.set("manager_cpu_pct", app.metrics.manager_cpu_pct);
    r.set("adaptations", result.adaptations);
    sink.write(r);
  }
}

}  // namespace

ExperimentResult Experiment::run_on(Backend& backend) const {
  const ExperimentSpec& spec = spec_;
  SimEngine* const engine = backend.sim_engine();  // Null on live backends.

  std::vector<AppSlot> slots = make_slots(spec);
  for (AppSlot& slot : slots) {
    if (slot.spawn_event == nullptr || slot.spawn_event->time <= 0) {
      spawn_app(slot, backend, 0);
    }
  }
  resolve_targets(spec, backend, slots);
  std::vector<AppId> ids;
  std::vector<PerfTarget> targets;
  for (const AppSlot& slot : slots) {
    if (!slot.spawned) continue;
    backend.heartbeats(slot.id).set_target(slot.target);
    ids.push_back(slot.id);
    targets.push_back(slot.target);
  }

  // The registry entry exists: build() validated the variant name.
  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  std::unique_ptr<VariantInstance> instance =
      entry->factory(VariantSetup{backend, spec, ids, targets});
  if (instance == nullptr) {
    throw std::runtime_error("variant \"" + spec.variant +
                             "\" factory returned no instance");
  }
  if (instance->active()) backend.attach_manager(instance.get());

  // Scenario events after t = 0 and trace capture ride the engine's tick
  // hook; quiet spans run up to its due time.
  std::optional<ScenarioRuntime> runtime;
  if (spec.scenario) {
    runtime.emplace(*spec.scenario, backend, slots);
    runtime->attach_variant(instance.get());
    if (spec.capture != nullptr) runtime->attach_capture(*spec.capture, spec);
    engine->set_tick_hook([&runtime](TimeUs t) { runtime->on_tick(t); },
                          [&runtime] { return runtime->next_due(); });
  }

  // Steady state: warm up until every app heartbeats (cap 60 s), then
  // measure from a fresh sensor.
  if (engine != nullptr && spec.protocol == RunProtocol::kSteadyState) {
    const TimeUs warmup_cap = backend.now() + 60 * kUsPerSec;
    const auto all_beating = [&] {
      return std::all_of(slots.begin(), slots.end(), [&](const AppSlot& s) {
        return slot_heartbeats(s, backend).count() > 0;
      });
    };
    while (!all_beating() && backend.now() < warmup_cap) {
      backend.run_for(100 * kUsPerMs);
    }
    engine->sensor().reset();
  }

  const TimeUs t0 = backend.now();
  const double energy0 = backend.energy_j();
  if (spec.sample_period > 0 && spec.sampler) {
    const TimeUs end = t0 + spec.duration;
    while (backend.now() < end) {
      backend.run_for(std::min(spec.sample_period, end - backend.now()));
      sample_run(spec, *engine, slots, *instance);
    }
  } else {
    backend.run_for(spec.duration);
  }
  const TimeUs t1 = backend.now();
  if (runtime) runtime->finish(t1);

  RunMeasurement run;
  run.energy_j = backend.energy_j() - energy0;
  run.avg_power_w = t1 > t0 ? run.energy_j / us_to_sec(t1 - t0) : 0.0;
  run.manager_cpu_pct = backend.manager_cpu_utilization_pct();

  // Simulated cold starts measure each app from its first heartbeat (or
  // spawn) to its departure (or run end); steady state and live runs
  // measure every app over [t0, t1].
  const bool from_first_beat =
      engine != nullptr && spec.protocol == RunProtocol::kColdStart;
  ExperimentResult result;
  result.avg_power_w = run.avg_power_w;
  for (const AppSlot& slot : slots) {
    if (!slot.spawned) continue;  // Arrival beyond the run's duration.
    const HeartbeatMonitor& heartbeats = slot_heartbeats(slot, backend);
    const TimeUs span1 = slot.depart_time >= 0 ? slot.depart_time : t1;
    TimeUs span0 = t0;
    if (from_first_beat) {
      const auto& history = heartbeats.history();
      span0 = std::min(history.empty() ? slot.spawn_time : history.front().time,
                       span1);
    }
    AppRunResult app;
    app.label = slot.label;
    app.target = slot.target;
    app.spawn_time_us = slot.spawn_time;
    app.depart_time_us = slot.depart_time;
    app.metrics = collect_metrics(heartbeats, slot.target, span0, span1, run);
    app.trace = instance->trace(slot.id);
    result.apps.push_back(std::move(app));
  }
  result.static_state = instance->static_state();
  result.final_state = instance->current_state();
  result.adaptations = instance->adaptations();
  if (spec.capture != nullptr) write_capture_metrics(*spec.capture, result);
  return result;
}

ExperimentResult Experiment::run() const {
  // Scoped around the whole pipeline: arms the registry when enabled,
  // writes the configured sinks on exit. With telemetry disabled this is
  // construction of an inert object.
  obs::TelemetrySession telemetry(spec_.telemetry);
  if (spec_.backend == "sim") {
    SimEngine engine = make_engine(spec_);
    SimBackend backend(engine);
    return run_on(backend);
  }
  BackendOptions options = spec_.backend_options;
  if (!options.platform) options.platform = spec_.platform;
  return run_on(*BackendRegistry::instance().get_live(spec_.backend, options));
}

ExperimentBuilder::ExperimentBuilder() = default;

ExperimentBuilder& ExperimentBuilder::platform(PlatformSpec spec) {
  try {
    spec.validate();
  } catch (const PlatformConfigError& error) {
    throw ExperimentConfigError(error.what());
  }
  spec_.platform = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::platform(std::string_view name) {
  try {
    spec_.platform = PlatformRegistry::instance().get(name);
  } catch (const PlatformConfigError& error) {
    throw ExperimentConfigError(error.what());
  }
  return *this;
}

ExperimentBuilder& ExperimentBuilder::os_scheduler(GtsConfig config) {
  spec_.make_scheduler = [config] {
    return std::make_unique<GtsScheduler>(config);
  };
  return *this;
}

ExperimentBuilder& ExperimentBuilder::os_scheduler(
    std::function<std::unique_ptr<Scheduler>()> factory) {
  spec_.make_scheduler = std::move(factory);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::app(ParsecBenchmark bench) {
  AppSpec spec;
  spec.bench = bench;
  spec.factory = [bench](int threads, std::uint64_t seed) {
    return make_parsec_app(bench, threads, seed);
  };
  spec.label = parsec_code(bench);
  spec_.apps.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::app(std::string label,
                                          AppFactory factory) {
  AppSpec spec;
  spec.factory = std::move(factory);
  spec.label = std::move(label);
  spec_.apps.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::apps(
    const std::vector<ParsecBenchmark>& benches) {
  for (ParsecBenchmark bench : benches) app(bench);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(Scenario scenario) {
  try {
    scenario.validate();
  } catch (const ScenarioError& error) {
    throw ExperimentConfigError(error.what());
  }
  spec_.scenario = std::move(scenario);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(std::string_view name) {
  try {
    spec_.scenario = ScenarioRegistry::instance().get(name);
  } catch (const ScenarioError& error) {
    throw ExperimentConfigError(error.what());
  }
  return *this;
}

ExperimentBuilder& ExperimentBuilder::capture(TraceSink& sink) {
  spec_.capture = &sink;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::target(PerfTarget target) {
  if (spec_.apps.empty()) {
    throw ExperimentConfigError("target() requires an app to be added first");
  }
  spec_.apps.back().target = target;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::target_fraction(double fraction) {
  spec_.target_fraction = fraction;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::backend(std::string_view name) {
  if (!BackendRegistry::instance().known(name)) {
    std::string message = "unknown backend \"" + std::string(name) +
                          "\"; known:";
    for (const std::string& known : BackendRegistry::instance().names()) {
      message += ' ';
      message += known;
    }
    throw ExperimentConfigError(message);
  }
  spec_.backend = std::string(name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::backend(std::string_view name,
                                              BackendOptions options) {
  backend(name);
  spec_.backend_options = std::move(options);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::variant(std::string name) {
  spec_.variant = std::move(name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scheduler(ThreadSchedulerKind kind) {
  spec_.tuning.scheduler = kind;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::predictor(PredictorKind kind) {
  spec_.tuning.predictor = kind;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::policy(SearchPolicy policy) {
  spec_.tuning.policy = policy;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::search_distance(int d) {
  spec_.tuning.search_distance = d;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::adapt_period(int heartbeats) {
  spec_.tuning.adapt_period = heartbeats;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::assumed_ratio(double r0) {
  spec_.tuning.r0 = r0;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::learn_ratio(bool on) {
  spec_.tuning.learn_ratio = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::audit(bool on) {
  spec_.audit = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(obs::TelemetryConfig config) {
  config.enabled = true;
  spec_.telemetry = std::move(config);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::protocol(RunProtocol protocol) {
  spec_.protocol = protocol;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::duration(TimeUs duration) {
  spec_.duration = duration;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::duration_sec(double seconds) {
  spec_.duration = sec_to_us(seconds);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(int threads) {
  spec_.threads = threads;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::sample_every(TimeUs period,
                                                   SampleFn fn) {
  spec_.sample_period = period;
  spec_.sampler = std::move(fn);
  return *this;
}

Experiment ExperimentBuilder::build() const {
  ExperimentSpec spec = spec_;

  if (spec.scenario) {
    if (!spec.apps.empty()) {
      throw ExperimentConfigError(
          "scenario() and app() are exclusive: scenario spawns define the "
          "apps");
    }
    if (spec.protocol == RunProtocol::kSteadyState) {
      throw ExperimentConfigError(
          "scenario runs use the cold-start protocol (a steady-state warmup "
          "has no meaning when apps arrive over time)");
    }
    spec.protocol = RunProtocol::kColdStart;
    // Synthesize the t = 0 app set so variant factories (and the traits
    // validation below) see the initial apps; later arrivals go through
    // VariantInstance::on_app_spawn.
    for (const ScenarioEvent* spawn : spec.scenario->spawns()) {
      if (spawn->time > 0) continue;
      AppSpec app;
      app.bench = spawn->spawn.bench;
      const ParsecBenchmark bench = *spawn->spawn.bench;
      app.factory = [bench](int threads, std::uint64_t seed) {
        return make_parsec_app(bench, threads, seed);
      };
      app.label = spawn->app;
      if (spawn->spawn.target) app.target = *spawn->spawn.target;
      spec.apps.push_back(std::move(app));
    }
  } else if (spec.capture != nullptr) {
    throw ExperimentConfigError("capture() requires scenario()");
  }

  if (spec.apps.empty()) {
    throw ExperimentConfigError("experiment needs at least one app");
  }
  if (!BackendRegistry::instance().known(spec.backend)) {
    std::string message = "unknown backend \"" + spec.backend + "\"; known:";
    for (const std::string& known : BackendRegistry::instance().names()) {
      message += ' ';
      message += known;
    }
    throw ExperimentConfigError(message);
  }
  if (spec.backend != "sim") {
    // The live pipeline drives real (or mock) hardware: no simulated
    // clock to slice for samplers and no engine for scenarios to mutate.
    if (spec.scenario) {
      throw ExperimentConfigError(
          "scenario() requires the sim backend (scenario events drive the "
          "simulated engine)");
    }
    if (spec.sampler) {
      throw ExperimentConfigError(
          "sample_every() requires the sim backend (RunView exposes the "
          "simulated engine)");
    }
    if (spec.capture != nullptr) {
      throw ExperimentConfigError("capture() requires the sim backend");
    }
  }
  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  if (entry == nullptr) {
    std::string message = "unknown variant \"" + spec.variant + "\"; known:";
    for (const std::string& name : VariantRegistry::instance().names()) {
      message += ' ';
      message += name;
    }
    throw ExperimentConfigError(message);
  }
  const VariantTraits& traits = entry->traits;
  const int app_count = static_cast<int>(spec.apps.size());
  if (app_count < traits.min_apps || app_count > traits.max_apps) {
    throw ExperimentConfigError(
        "variant \"" + spec.variant + "\" supports " +
        std::to_string(traits.min_apps) + ".." +
        std::to_string(traits.max_apps) + " apps, got " +
        std::to_string(app_count));
  }
  if (traits.requires_parsec) {
    for (const AppSpec& app : spec.apps) {
      if (!app.bench) {
        throw ExperimentConfigError("variant \"" + spec.variant +
                                    "\" requires PARSEC benchmark apps");
      }
    }
  }
  const unsigned rejected = tuning_fields(spec.tuning) & ~traits.accepted_tuning;
  if (rejected != 0) {
    std::string message =
        "variant \"" + spec.variant + "\" does not accept tuning:";
    for (unsigned bit = 1; bit <= kTuneLearnRatio; bit <<= 1) {
      if (rejected & bit) {
        message += ' ';
        message += tuning_field_name(static_cast<TuningField>(bit));
      }
    }
    throw ExperimentConfigError(message);
  }
  if (!(spec.target_fraction > 0.0) || spec.target_fraction > 1.0) {
    throw ExperimentConfigError("target_fraction must be in (0, 1]");
  }
  for (const AppSpec& app : spec.apps) {
    if (app.target && !app.target->is_valid_window()) {
      throw ExperimentConfigError(
          "app \"" + app.label +
          "\" needs a positive target window (0 <= min <= max, max > 0); "
          "a non-positive target average would zero every normalized-perf "
          "score");
    }
  }
  if (spec.duration <= 0) {
    throw ExperimentConfigError("duration must be positive");
  }
  if (spec.threads < 1) {
    throw ExperimentConfigError("threads must be >= 1");
  }
  if (spec.tuning.search_distance && *spec.tuning.search_distance < 0) {
    throw ExperimentConfigError("search_distance must be >= 0");
  }
  if (spec.tuning.adapt_period && *spec.tuning.adapt_period < 1) {
    throw ExperimentConfigError("adapt_period must be >= 1");
  }
  if (spec.tuning.r0 && !(*spec.tuning.r0 > 0.0)) {
    throw ExperimentConfigError("assumed_ratio must be > 0");
  }
  if ((spec.sample_period > 0) != static_cast<bool>(spec.sampler)) {
    throw ExperimentConfigError(
        "sample_every needs both a positive period and a callback");
  }

  if (spec.protocol == RunProtocol::kAuto) {
    spec.protocol = spec.apps.size() == 1 ? RunProtocol::kSteadyState
                                          : RunProtocol::kColdStart;
  }
  return Experiment(std::move(spec));
}

}  // namespace hars
