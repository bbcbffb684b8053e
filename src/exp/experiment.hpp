// The unified experiment API.
//
// One typed, composable surface: an ExperimentBuilder configures
// platform -> apps -> targets -> runtime variant -> measurement protocol,
// validates the combination at build() time, and Experiment::run()
// executes the one run pipeline on any backend — open the backend, fill
// the app-slot table, resolve targets, instantiate the variant through
// the VariantRegistry, apply the protocol, run, and collect per-app
// metrics and behaviour traces.
//
//   ExperimentResult r = ExperimentBuilder()
//                            .app(ParsecBenchmark::kSwaptions)
//                            .target_fraction(0.5)
//                            .variant("HARS-EI")
//                            .duration(120 * kUsPerSec)
//                            .build()
//                            .run();
//
// Any number of apps is supported (the multi-application §5.2 protocol is
// the same pipeline with per-app targets derived from a concurrent
// baseline probe); custom App factories and custom platforms slot in next
// to the PARSEC presets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/parsec.hpp"
#include "backend/backend_registry.hpp"
#include "exp/metrics.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/machine.hpp"
#include "hmp/platform_spec.hpp"
#include "obs/telemetry.hpp"
#include "scenario/scenario.hpp"
#include "sched/gts.hpp"
#include "sched/scheduler.hpp"

namespace hars {

class Experiment;
class TraceSink;  // scenario/trace_sink.hpp

/// Builds one application instance for the run. `threads` and `seed` come
/// from the experiment spec (seed is already offset per app slot).
using AppFactory =
    std::function<std::unique_ptr<App>(int threads, std::uint64_t seed)>;

struct AppSpec {
  std::optional<ParsecBenchmark> bench;  ///< Set for PARSEC presets.
  AppFactory factory;
  std::optional<PerfTarget> target;  ///< Explicit target; else derived.
  std::string label;
};

/// Measurement protocol.
///  * kSteadyState — warm up until every app heartbeats (cap 60 s), reset
///    the power sensor, then measure for `duration` (the §5.1 protocol);
///  * kColdStart — all apps start with the measurement at t = 0 and each
///    app's span begins at its first heartbeat (the §5.2 protocol).
///  * kAuto — steady-state for one app, cold-start for several.
enum class RunProtocol { kAuto, kSteadyState, kColdStart };

struct RunView;
using SampleFn = std::function<void(const RunView&)>;

/// The validated configuration Experiment runs. Built by ExperimentBuilder;
/// read by the variant factories through VariantSetup::spec.
struct ExperimentSpec {
  /// The platform the experiment runs on (topology + power parameters +
  /// calibration defaults). Default: the paper's Exynos 5422 preset.
  PlatformSpec platform = PlatformSpec::from_machine(Machine::exynos5422());
  std::function<std::unique_ptr<Scheduler>()> make_scheduler;
  std::vector<AppSpec> apps;
  std::string variant = "HARS-E";
  /// Execution backend by registered name. "sim" (the default) runs the
  /// discrete-time simulator; any other name resolves through
  /// BackendRegistry::get_live() and the run drives the live platform
  /// with synthetic spin workloads shaped like the configured apps.
  std::string backend = "sim";
  /// Construction options for live (non-sim) backends. The platform field
  /// defaults to `platform` at run time (power-parameter grafting).
  BackendOptions backend_options;
  double target_fraction = 0.50;  ///< Of max achievable, for derived targets.
  TimeUs duration = 120 * kUsPerSec;
  int threads = 8;
  std::uint64_t seed = 1;
  RunProtocol protocol = RunProtocol::kAuto;
  VariantTuning tuning;
  TimeUs sample_period = 0;
  SampleFn sampler;
  /// Dynamic scenario (apps from the scenario, not from `apps` — build()
  /// synthesizes `apps` from the t = 0 spawns so variant factories and
  /// validation see the initial set).
  std::optional<Scenario> scenario;
  /// Trace capture for scenario runs (non-owning; see TraceSink).
  TraceSink* capture = nullptr;
  /// Per-run override of the engine's debug invariant audits
  /// (SimConfig::audit). Unset = the build default (HARS_AUDIT); fuzzing
  /// sets it so oracle runs audit every tick even in release builds.
  /// Does not affect results: audits only observe.
  std::optional<bool> audit;
  /// Telemetry for this run (disabled by default — the hot path then
  /// costs one thread-local null check). When enabled, run() scopes a
  /// TelemetrySession around the pipeline and writes the configured
  /// sinks on completion. Does not affect results: records are
  /// bit-identical with telemetry on or off.
  obs::TelemetryConfig telemetry;
};

struct AppRunResult {
  std::string label;
  RunMetrics metrics;
  std::vector<TracePoint> trace;  ///< Empty for trace-less variants.
  PerfTarget target;              ///< Target at run end.
  // --- Scenario runs only (0 / -1 otherwise) ---
  TimeUs spawn_time_us = 0;    ///< When the app arrived.
  TimeUs depart_time_us = -1;  ///< When it was killed; -1 = ran to end.
};

struct ExperimentResult {
  std::vector<AppRunResult> apps;  ///< In registration order.
  double avg_power_w = 0.0;        ///< System power over the measured span.
  std::optional<SystemState> static_state;  ///< Chosen state, "SO" only.
  std::optional<SystemState> final_state;   ///< Manager state at run end.
  std::int64_t adaptations = 0;

  const AppRunResult& app(std::size_t i = 0) const { return apps.at(i); }
};

/// Live view passed to the sampling callback between simulation slices.
struct RunView {
  SimEngine& engine;
  const std::vector<App*>& apps;      ///< In registration order.
  const std::vector<AppId>& app_ids;  ///< Engine ids, same order as apps.
  VariantInstance& variant;
  TimeUs now = 0;
};

/// Invalid builder configurations are reported through this exception.
class ExperimentConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Experiment {
 public:
  /// Executes the pipeline on the spec's backend. Deterministic:
  /// identical specs produce identical results.
  ExperimentResult run() const;

  /// The run pipeline on a caller-built backend: spawn the t = 0 apps,
  /// resolve targets, instantiate the variant, apply the protocol, run
  /// (sampling if asked) and collect every app's metrics. run() calls it
  /// with the spec's backend; the differential oracle
  /// (oracle/reference_run.hpp) with a reference-tick one.
  ExperimentResult run_on(Backend& backend) const;

  const ExperimentSpec& spec() const { return spec_; }

 private:
  friend class ExperimentBuilder;
  explicit Experiment(ExperimentSpec spec) : spec_(std::move(spec)) {}

  ExperimentSpec spec_;
};

class ExperimentBuilder {
 public:
  ExperimentBuilder();

  // --- Platform ---
  /// A declarative platform description (validated here).
  ExperimentBuilder& platform(PlatformSpec spec);
  /// A registered platform by name ("exynos5422", "sd855", ...); throws
  /// ExperimentConfigError listing the known names when unknown.
  ExperimentBuilder& platform(std::string_view name);
  /// OS-scheduler substrate (default: stock GTS).
  ExperimentBuilder& os_scheduler(GtsConfig config);
  ExperimentBuilder& os_scheduler(
      std::function<std::unique_ptr<Scheduler>()> factory);

  // --- Applications ---
  ExperimentBuilder& app(ParsecBenchmark bench);
  ExperimentBuilder& app(std::string label, AppFactory factory);
  ExperimentBuilder& apps(const std::vector<ParsecBenchmark>& benches);

  // --- Dynamic scenario (the time axis; exclusive with app()) ---
  /// Apps, targets and mid-run events come from the scenario; the run
  /// uses the cold-start protocol and every per-app span ends at the
  /// app's departure. Validated at build(): see ExperimentSpec::scenario.
  ExperimentBuilder& scenario(Scenario scenario);
  /// A registered scenario preset by name ("steady", "staggered", ...);
  /// throws ExperimentConfigError listing the known names when unknown.
  ExperimentBuilder& scenario(std::string_view name);
  /// Captures the scenario run's trace into `sink` (kept alive by the
  /// caller); requires scenario(). See TraceSink for the replay contract.
  ExperimentBuilder& capture(TraceSink& sink);

  // --- Targets ---
  /// Explicit target for the most recently added app.
  ExperimentBuilder& target(PerfTarget target);
  /// Derived-target fraction of max achievable performance (default 0.5).
  ExperimentBuilder& target_fraction(double fraction);

  // --- Execution backend ---
  /// Selects the execution backend by registered name ("sim",
  /// "mock_linux", "linux", ...). Malformed names are rejected here —
  /// before build() — with the known-name list in the error.
  ExperimentBuilder& backend(std::string_view name);
  /// Same, with live-backend construction options (tick period, dry-run,
  /// sysfs fixture / root, platform power grafting).
  ExperimentBuilder& backend(std::string_view name, BackendOptions options);

  // --- Runtime variant ---
  ExperimentBuilder& variant(std::string name);
  ExperimentBuilder& scheduler(ThreadSchedulerKind kind);
  ExperimentBuilder& predictor(PredictorKind kind);
  ExperimentBuilder& policy(SearchPolicy policy);
  ExperimentBuilder& search_distance(int d);
  ExperimentBuilder& adapt_period(int heartbeats);
  ExperimentBuilder& assumed_ratio(double r0);
  ExperimentBuilder& learn_ratio(bool on = true);

  // --- Audits ---
  /// Forces the engine's debug invariant audits on (or off) for this run
  /// regardless of the build default. See ExperimentSpec::audit.
  ExperimentBuilder& audit(bool on = true);

  // --- Telemetry ---
  /// Enables run-scoped telemetry with the given sink configuration
  /// (config.enabled is forced on). See ExperimentSpec::telemetry.
  ExperimentBuilder& telemetry(obs::TelemetryConfig config);

  // --- Protocol ---
  ExperimentBuilder& protocol(RunProtocol protocol);
  ExperimentBuilder& duration(TimeUs duration);
  ExperimentBuilder& duration_sec(double seconds);
  ExperimentBuilder& threads(int threads);
  ExperimentBuilder& seed(std::uint64_t seed);
  /// Invokes `fn` every `period` of simulated time during the run.
  ExperimentBuilder& sample_every(TimeUs period, SampleFn fn);

  /// Validates the configuration; throws ExperimentConfigError on an
  /// inconsistent one (unknown variant, tuning the variant ignores,
  /// app-count mismatch, ...).
  Experiment build() const;

 private:
  ExperimentSpec spec_;
};

/// The six two-application cases of Figure 5.4, in order.
std::vector<std::vector<ParsecBenchmark>> multiapp_cases();

}  // namespace hars
