#include "oracle/fuzz_harness.hpp"

#include <sstream>

#include "oracle/reference_run.hpp"
#include "sweep/result_sink.hpp"

namespace hars {

namespace {

Experiment build_case(const ReproCase& repro) {
  ExperimentBuilder b;
  b.platform(std::string_view(repro.platform))
      .scenario(repro.scenario)
      .variant(repro.variant)
      .target_fraction(repro.fraction)
      .duration_sec(repro.duration_sec)
      .seed(repro.seed)
      .audit(true);
  if (repro.threads > 0) b.threads(repro.threads);
  return b.build();
}

}  // namespace

std::string result_fingerprint(const ExperimentResult& result) {
  const auto state = [](const std::optional<SystemState>& s) {
    return s ? s->to_string() : std::string();
  };
  Record rec;
  rec.set("avg_power_w", result.avg_power_w);
  rec.set("adaptations", result.adaptations);
  rec.set("static_state", state(result.static_state));
  rec.set("final_state", state(result.final_state));
  for (std::size_t i = 0; i < result.apps.size(); ++i) {
    const AppRunResult& app = result.apps[i];
    const std::string p = "app" + std::to_string(i) + "_";
    rec.set(p + "label", app.label);
    rec.set(p + "spawn_us", app.spawn_time_us);
    rec.set(p + "depart_us", app.depart_time_us);
    rec.set(p + "target_min", app.target.min);
    rec.set(p + "target_max", app.target.max);
    rec.set(p + "heartbeats", app.metrics.heartbeats);
    rec.set(p + "norm_perf", app.metrics.norm_perf);
    rec.set(p + "avg_rate_hps", app.metrics.avg_rate_hps);
    rec.set(p + "avg_power_w", app.metrics.avg_power_w);
    rec.set(p + "perf_per_watt", app.metrics.perf_per_watt);
    rec.set(p + "in_window", app.metrics.in_window_fraction);
    rec.set(p + "energy_j", app.metrics.energy_j);
    rec.set(p + "energy_per_beat_j", app.metrics.energy_per_beat_j);
    rec.set(p + "manager_cpu_pct", app.metrics.manager_cpu_pct);
    rec.set(p + "trace_points", static_cast<std::int64_t>(app.trace.size()));
    // Every trace point, fields in TracePoint order, doubles round-tripped.
    std::string trace;
    for (const TracePoint& t : app.trace) {
      trace += std::to_string(t.hb_index) + ',' + format_number(t.hps) + ',' +
               std::to_string(t.big_cores) + ',' +
               std::to_string(t.little_cores) + ',' +
               format_number(t.big_freq_ghz) + ',' +
               format_number(t.little_freq_ghz) + ';';
    }
    rec.set(p + "trace", trace);
  }
  std::ostringstream out;
  JsonlSink sink(out);
  sink.write(rec);
  return out.str();
}

FuzzCaseResult run_fuzz_case(const ReproCase& repro, bool differential) {
  if (!repro.inject.empty()) {
    // Synthetic oracle: a pure predicate over the scenario (fixtures and
    // harness self-tests), evaluated through ScenarioError like any
    // other recipe problem.
    if (const auto failure = injected_failure(repro.scenario, repro.inject)) {
      return {true, *failure};
    }
    return {false, ""};
  }

  ExperimentResult optimized;
  try {
    optimized = build_case(repro).run();
  } catch (const std::exception& error) {
    return {true, error.what()};
  }
  if (!differential) return {false, ""};

  ExperimentResult reference;
  try {
    reference = run_reference(build_case(repro));
  } catch (const std::exception& error) {
    return {true, std::string("reference path: ") + error.what()};
  }
  const std::string opt_print = result_fingerprint(optimized);
  const std::string ref_print = result_fingerprint(reference);
  if (opt_print != ref_print) {
    return {true,
            "differential: optimized and reference records diverge\n  opt: " +
                opt_print + "  ref: " + ref_print};
  }
  return {false, ""};
}

}  // namespace hars
