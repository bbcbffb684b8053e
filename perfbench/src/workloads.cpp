#include "workloads.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <utility>

#include "apps/parsec.hpp"
#include "core/power_profiler.hpp"
#include "exp/calibration.hpp"
#include "exp/experiment.hpp"
#include "exp/static_optimal.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "scenario/generator.hpp"
#include "scenario/scenario_runtime.hpp"
#include "sweep/sweep_engine.hpp"

namespace perfbench {

namespace {

using namespace hars;

constexpr int kThreads = 8;
constexpr double kFraction = 0.50;

// Run lengths, in simulated seconds. Each operation is long enough that
// its host time dwarfs clock and scheduling noise.
constexpr double kSteadyDurationS = 600.0;
constexpr double kChurnHorizonS = 300.0;
// churn runs one fixed input: its apps live 1.5-12 s, so only a handful
// of the ~100 reach their target window, and any change of generator or
// app seed swings the in-window share by a quarter.
constexpr std::uint64_t kChurnSeed = 1;
constexpr double kChurnRetargetHz = 0.05;
constexpr double kLiveDurationS = 600.0;
// Experiment::run's live pipeline probes for max(duration / 5, 1 s).
constexpr double kLiveProbeS = std::max(kLiveDurationS / 5.0, 1.0);
constexpr double kFig51DurationS = 120.0;
constexpr double kFig54DurationS = 150.0;
constexpr int kSweepWorkers = 2;

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-6;
}

/// Shortest round-trip decimal form, so equal doubles print equal text.
std::string fmt(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const std::vector<TracePoint>& trace) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const TracePoint& p : trace) {
    h = fnv1a(h, &p.hb_index, sizeof p.hb_index);
    h = fnv1a(h, &p.hps, sizeof p.hps);
    h = fnv1a(h, &p.big_cores, sizeof p.big_cores);
    h = fnv1a(h, &p.little_cores, sizeof p.little_cores);
    h = fnv1a(h, &p.big_freq_ghz, sizeof p.big_freq_ghz);
    h = fnv1a(h, &p.little_freq_ghz, sizeof p.little_freq_ghz);
  }
  return h;
}

std::string state_text(const std::optional<SystemState>& s) {
  return s ? s->to_string() : "-";
}

/// One line per app plus a run line. Live backends measure manager CPU
/// in host time, so it is left out of their records.
std::string experiment_records(const ExperimentResult& r,
                               bool with_manager_cpu) {
  std::string out;
  for (const AppRunResult& app : r.apps) {
    const RunMetrics& m = app.metrics;
    out += "app=" + app.label + " spawn_us=" + std::to_string(app.spawn_time_us) +
           " depart_us=" + std::to_string(app.depart_time_us) +
           " target=" + fmt(app.target.min) + ".." + fmt(app.target.max) +
           " heartbeats=" + std::to_string(m.heartbeats) +
           " norm_perf=" + fmt(m.norm_perf) + " rate=" + fmt(m.avg_rate_hps) +
           " power_w=" + fmt(m.avg_power_w) +
           " perf_per_watt=" + fmt(m.perf_per_watt) +
           " in_window=" + fmt(m.in_window_fraction) +
           " energy_j=" + fmt(m.energy_j) +
           " energy_per_beat_j=" + fmt(m.energy_per_beat_j);
    if (with_manager_cpu) out += " manager_cpu_pct=" + fmt(m.manager_cpu_pct);
    out += " trace=" + std::to_string(app.trace.size()) + ":" +
           std::to_string(trace_hash(app.trace)) + "\n";
  }
  out += "avg_power_w=" + fmt(r.avg_power_w) +
         " adaptations=" + std::to_string(r.adaptations) +
         " final=" + state_text(r.final_state) +
         " static=" + state_text(r.static_state) + "\n";
  return out;
}

/// Geomean of the positive values (an app that never heartbeats scores 0
/// and would zero the mean; its record still carries the 0).
double geomean_positive(const std::vector<double>& values) {
  double log_sum = 0.0;
  int n = 0;
  for (double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct OutcomeColumns {
  std::vector<double> perf_per_watt, norm_perf, manager_cpu;
  double in_window_weighted = 0.0;
  double weight = 0.0;

  void add(double ppw, double norm, double in_window, double manager_cpu_pct,
           double app_weight) {
    perf_per_watt.push_back(ppw);
    norm_perf.push_back(norm);
    manager_cpu.push_back(manager_cpu_pct);
    in_window_weighted += app_weight * in_window;
    weight += app_weight;
  }
  Outcomes reduce() const {
    return {geomean_positive(perf_per_watt), geomean_positive(norm_perf),
            weight > 0.0 ? in_window_weighted / weight : 0.0,
            mean(manager_cpu)};
  }
};

/// Apps are weighted by their simulated lifetime in the in-window mean,
/// so it is the share of app-time spent inside the target window: a
/// churn app that lives two seconds weighs less than one that lives a
/// minute.
Outcomes outcomes_of(const ExperimentResult& r, double run_end_s) {
  OutcomeColumns c;
  for (const AppRunResult& app : r.apps) {
    const double end_s = app.depart_time_us >= 0
                             ? us_to_sec(app.depart_time_us)
                             : run_end_s;
    const RunMetrics& m = app.metrics;
    c.add(m.perf_per_watt, m.norm_perf, m.in_window_fraction,
          m.manager_cpu_pct, end_s - us_to_sec(app.spawn_time_us));
  }
  return c.reduce();
}

double profile_platform_ms(const PlatformSpec& platform) {
  const std::int64_t t0 = now_ns();
  SimEngine engine(platform, std::make_unique<GtsScheduler>());
  profile_power(engine.machine(), engine.power_model());
  return ms_since(t0);
}

// --- steady, churn, live: one Experiment::run per operation -------------

/// A workload whose operation is one Experiment::run of a fixed spec. The
/// traced twin differs only in the timed OS-scheduler decorator.
class ExperimentWorkload : public Workload {
 public:
  OpResult run(bool traced) override {
    set_probe_config(probe_config(traced));
    take_probe_stats();
    OpResult op;
    const std::int64_t t0 = now_ns();
    std::optional<ExperimentResult> result;
    try {
      result = (traced ? *traced_ : *plain_).run();
    } catch (const std::exception& error) {
      std::cerr << "perfbench: run failed: " << error.what() << "\n";
    }
    op.host_s = static_cast<double>(now_ns() - t0) * 1e-9;
    op.probes = take_probe_stats();
    op.sim_s = sim_s_;
    op.records.push_back(result ? records_of(*result, op.probes) : "");
    if (result) op.outcomes = outcomes_of(*result, op.probes);
    return op;
  }

 protected:
  explicit ExperimentWorkload(const Options& options) : options_(options) {}

  /// Keeps the workload seed's experiments; set-ups at other seeds only
  /// pay for building them.
  void keep(std::uint64_t seed, Experiment plain, Experiment traced) {
    if (seed != options_.seed) return;
    plain_.emplace(std::move(plain));
    traced_.emplace(std::move(traced));
  }

  /// Installs the OS-scheduler decorator when tracing or when the
  /// sensitivity self-check injects an assign() delay.
  void scheduler(ExperimentBuilder& b, bool traced) const {
    if (traced || options_.assign_delay_ns > 0) {
      b.os_scheduler(probed_gts_factory(traced, options_.assign_delay_ns));
    }
  }

  virtual ProbeConfig probe_config(bool traced) const {
    return {traced, false, traced};
  }
  virtual std::string records_of(const ExperimentResult& r,
                                 const ProbeStats&) const {
    return experiment_records(r, true);
  }
  virtual Outcomes outcomes_of(const ExperimentResult& r,
                               const ProbeStats&) const {
    return perfbench::outcomes_of(r, sim_s_);
  }

  Options options_;
  double sim_s_ = 0.0;

 private:
  std::optional<Experiment> plain_;
  std::optional<Experiment> traced_;
};

class Steady final : public ExperimentWorkload {
 public:
  explicit Steady(const Options& options)
      : ExperimentWorkload(options),
        platform_(PlatformRegistry::instance().get("exynos5422")) {
    sim_s_ = kSteadyDurationS;
  }

  void setup(std::uint64_t seed, Metrics& layer) override {
    const std::int64_t t0 = now_ns();
    calibrate_benchmark(platform_, ParsecBenchmark::kSwaptions, kThreads,
                        seed);
    layer["exp.calibrate_ms"] = ms_since(t0);
    layer["exp.calibrations"] = 1;
    layer["exp.profile_power_ms"] = profile_platform_ms(platform_);
    keep(seed, builder(seed, false).build(), builder(seed, true).build());
  }

 private:
  ExperimentBuilder builder(std::uint64_t seed, bool traced) const {
    ExperimentBuilder b;
    b.platform(platform_)
        .app(ParsecBenchmark::kSwaptions)
        .variant("HARS-E")
        .target_fraction(kFraction)
        .protocol(RunProtocol::kSteadyState)
        .threads(kThreads)
        .duration_sec(kSteadyDurationS)
        .seed(seed);
    scheduler(b, traced);
    return b;
  }

  PlatformSpec platform_;
};

class Churn final : public ExperimentWorkload {
 public:
  explicit Churn(const Options& options)
      : ExperimentWorkload(options),
        platform_(PlatformRegistry::instance().get("sd855")) {
    sim_s_ = kChurnHorizonS;
  }

  void setup(std::uint64_t seed, Metrics& layer) override {
    // The same scenario and app seeds for every workload seed (see
    // kChurnSeed); set-ups at other seeds re-key only the calibrations, so
    // each does the same amount of cold work.
    const std::uint64_t experiment_seed = kChurnSeed + (seed - options_.seed);
    GeneratorSpec g = ScenarioGenerator::profile("churn");
    g.seed = kChurnSeed;
    g.horizon_s = kChurnHorizonS;
    g.depart_prob = 1.0;
    g.retarget_rate_hz = kChurnRetargetHz;
    std::int64_t t0 = now_ns();
    const Scenario scenario = ScenarioGenerator(g).generate();
    layer["scenario.generate_ms"] = ms_since(t0);
    layer["scenario.spawns"] = static_cast<double>(scenario.spawns().size());
    layer["scenario.events"] = static_cast<double>(scenario.events.size());

    Experiment plain = builder(scenario, experiment_seed, false).build();
    int calibrations = 0;
    for (const ScenarioEvent* spawn : scenario.spawns()) {
      if (!spawn->spawn.target) ++calibrations;
    }
    t0 = now_ns();
    resolve_scenario_targets(plain.spec(), *plain.spec().scenario);
    layer["exp.calibrate_ms"] = ms_since(t0) / std::max(calibrations, 1);
    layer["exp.calibrations"] = calibrations;
    layer["exp.profile_power_ms"] = profile_platform_ms(platform_);
    keep(seed, std::move(plain),
         builder(scenario, experiment_seed, true).build());
  }

 private:
  ExperimentBuilder builder(const Scenario& scenario, std::uint64_t seed,
                            bool traced) const {
    ExperimentBuilder b;
    b.platform(platform_)
        .scenario(scenario)
        .variant("MP-HARS-E")
        .target_fraction(kFraction)
        .threads(kThreads)
        .duration_sec(kChurnHorizonS)
        .seed(seed);
    scheduler(b, traced);
    return b;
  }

  PlatformSpec platform_;
};

class Live final : public ExperimentWorkload {
 public:
  explicit Live(const Options& options)
      : ExperimentWorkload(options),
        platform_(PlatformRegistry::instance().get("exynos5422")) {
    // The live pipeline first runs a boot-state probe slice to derive the
    // target, then the measured span; both are simulated by the backend.
    sim_s_ = kLiveDurationS + kLiveProbeS;
  }

  void setup(std::uint64_t seed, Metrics& layer) override {
    std::int64_t t0 = now_ns();
    BackendOptions options;
    options.platform = platform_;
    std::unique_ptr<Backend> backend =
        BackendRegistry::instance().get_live("mock_linux", options);
    WorkloadDesc desc;
    desc.label = parsec_code(ParsecBenchmark::kSwaptions);
    desc.threads = kThreads;
    backend->add_workload(desc);
    // The boot-state probe slice the live pipeline derives targets from.
    backend->run_for(sec_to_us(kLiveProbeS));
    layer["backend.setup_ms"] = ms_since(t0);
    t0 = now_ns();
    profile_power(backend->topology(), backend->profiling_model());
    layer["exp.profile_power_ms"] = ms_since(t0);
    keep(seed, builder(seed).build(), builder(seed).build());
  }

 private:
  ExperimentBuilder builder(std::uint64_t seed) const {
    ExperimentBuilder b;
    b.platform(platform_)
        .app(ParsecBenchmark::kSwaptions)
        .variant("HARS-E")
        .backend("mock_linux")
        .target_fraction(kFraction)
        .threads(kThreads)
        .duration_sec(kLiveDurationS)
        .seed(seed);
    return b;
  }

  // The variant probe always counts here: the modeled manager cost it
  // sums is the live run's manager_cpu_pct.
  ProbeConfig probe_config(bool traced) const override {
    return {true, traced, traced};
  }
  std::string records_of(const ExperimentResult& r,
                         const ProbeStats& probes) const override {
    return experiment_records(r, false) +
           "modeled_manager_us=" + fmt(probes.core.modeled_cost_us) + "\n";
  }
  Outcomes outcomes_of(const ExperimentResult& r,
                       const ProbeStats& probes) const override {
    Outcomes o = perfbench::outcomes_of(r, sim_s_);
    o.manager_cpu_pct =
        100.0 * probes.core.modeled_cost_us / (kLiveDurationS * 1e6);
    return o;
  }

  PlatformSpec platform_;
};

// --- sweep: one campaign per operation, each case a unit of work --------

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& options)
      : options_(options),
        platform_(PlatformRegistry::instance().get("exynos5422")) {}

  void setup(std::uint64_t seed, Metrics& layer) override {
    double calibrate_ms = 0.0;
    double oracle_ms = 0.0;
    const std::vector<ParsecBenchmark> benches = all_parsec_benchmarks();
    for (ParsecBenchmark bench : benches) {
      // Exactly the calls the SO variant makes, so the campaign finds the
      // calibration and the oracle's choice cached.
      std::int64_t t0 = now_ns();
      const Calibration cal =
          calibrate_benchmark(platform_, bench, kThreads, seed);
      calibrate_ms += ms_since(t0);
      StaticOptimalOptions so;
      so.threads = kThreads;
      so.seed = seed;
      so.platform = platform_;
      t0 = now_ns();
      find_static_optimal(bench, cal.target_for_fraction(kFraction), so);
      oracle_ms += ms_since(t0);
    }
    const auto n = static_cast<double>(benches.size());
    layer["exp.calibrate_ms"] = calibrate_ms / n;
    layer["exp.calibrations"] = n;
    layer["exp.static_optimal_ms"] = oracle_ms / n;
    layer["exp.profile_power_ms"] = profile_platform_ms(platform_);
    SweepSpec spec = make_spec(seed);
    if (seed == options_.seed) spec_.emplace(std::move(spec));
  }

  int threads() const override { return kSweepWorkers; }

  OpResult run(bool traced) override {
    set_probe_config({traced, false, traced});
    take_probe_stats();
    SweepOptions sweep_options;
    sweep_options.jobs = kSweepWorkers;
    sweep_options.keep_results = false;
    SweepEngine engine(sweep_options);
    TableSink sink;
    engine.add_sink(sink);

    OpResult op;
    const std::int64_t t0 = now_ns();
    const SweepReport report = engine.run(*spec_);
    op.host_s = static_cast<double>(now_ns() - t0) * 1e-9;
    op.probes = take_probe_stats();
    op.sim_s = sim_s_;

    // Records as the sinks received them, grouped by case.
    op.records.assign(report.outcomes.size(), "");
    OutcomeColumns columns;
    for (const Record& row : sink.rows()) {
      const auto index = static_cast<std::size_t>(row.number("case"));
      if (index >= op.records.size()) continue;
      for (const RecordCell& cell : row.cells()) {
        op.records[index] += cell.key + "=" + cell.text + " ";
      }
      op.records[index] += "\n";
      columns.add(row.number("perf_per_watt"), row.number("norm_perf"),
                  row.number("in_window_fraction"),
                  row.number("manager_cpu_pct"), 1.0);
    }
    op.outcomes = columns.reduce();
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const CaseOutcome& outcome = report.outcomes[i];
      if (!outcome.ok()) {
        std::cerr << "perfbench: sweep case " << i
                  << " failed: " << outcome.error << "\n";
        op.records[i].clear();
      }
      op.case_ms.push_back(outcome.wall_ms);
      busy_ms += outcome.wall_ms;
    }
    op.worker_busy = report.wall_ms > 0.0
                         ? busy_ms / (report.jobs * report.wall_ms)
                         : 0.0;
    return op;
  }

 private:
  SweepSpec make_spec(std::uint64_t seed) {
    const PlatformSpec platform = platform_;
    SweepSpec spec;
    // Fig 5.1: the six PARSEC benchmarks x the single-app versions.
    spec.name("perfbench_sweep")
        .base([platform, seed](ExperimentBuilder& b) {
          b.platform(platform)
              .target_fraction(kFraction)
              .threads(kThreads)
              .duration_sec(kFig51DurationS)
              .seed(seed);
        })
        .benchmarks(all_parsec_benchmarks())
        .variants({"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"});
    sim_s_ = kFig51DurationS * 6 * 5;
    // Fig 5.4: the six two-app cases x the multi-app versions.
    const auto cases = multiapp_cases();
    const std::vector<std::string> versions{"CONS-I", "MP-HARS-I",
                                            "MP-HARS-E"};
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const std::vector<ParsecBenchmark> benches = cases[ci];
      for (const std::string& version : versions) {
        spec.add_case(
            {CaseCoord{"mcase", "Case " + std::to_string(ci + 1),
                       static_cast<double>(ci + 1)},
             CaseCoord{"variant", version,
                       std::numeric_limits<double>::quiet_NaN()}},
            {[benches](ExperimentBuilder& b) {
               b.apps(benches).duration_sec(kFig54DurationS);
             },
             [version](ExperimentBuilder& b) { b.variant(version); }});
        sim_s_ += kFig54DurationS;
      }
    }
    return spec;
  }

  Options options_;
  PlatformSpec platform_;
  std::optional<SweepSpec> spec_;
  double sim_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Options& options) {
  if (name == "steady") return std::make_unique<Steady>(options);
  if (name == "churn") return std::make_unique<Churn>(options);
  if (name == "sweep") return std::make_unique<Sweep>(options);
  if (name == "live") return std::make_unique<Live>(options);
  return nullptr;
}

}  // namespace perfbench
