// scenario_suite: the dynamic-scenario perf & adaptation campaign.
//
// Runs every registered scenario preset under a representative single-app
// and multi-app runtime (HARS-E, MP-HARS-E) with trace capture on, and
// reports per (scenario, variant):
//   * wall-clock of the simulated run (the scenario engine's overhead
//     trajectory, tracked by CI like BENCH_tick.json), and
//   * the adaptation-latency metric: for every mid-run event, the
//     simulated time from the event until every live app's windowed
//     heartbeat rate is back inside its target window ("target
//     reacquired"), averaged over events. Runs that never reacquire
//     before the run ends count the remaining span (censored).
//
//   scenario_suite [--duration SEC] [--sample-ticks N] [--out FILE]
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/trace_sink.hpp"
#include "sweep/result_sink.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace hars;

struct SuiteRow {
  std::string scenario;
  std::string variant;
  double wall_ms = 0.0;
  double mean_adapt_latency_s = 0.0;  ///< 0 when the scenario has no events.
  int events = 0;
  std::size_t samples = 0;
};

/// Mean time-to-reacquire over the scenario's mid-run events, from the
/// capture's sample stream. A tick sample counts as "reacquired" when
/// every app present in it beats inside its target window.
double mean_adapt_latency_s(const Scenario& scenario, const TraceSink& sink,
                            TimeUs run_end, int* events_out) {
  // Bucket samples by time, preserving order.
  std::vector<std::pair<TimeUs, bool>> in_window_at;  // (t, all-in-window)
  TimeUs current = -1;
  bool all_in = true;
  for (const Record& r : sink.samples()) {
    const auto t = static_cast<TimeUs>(r.number("t_us"));
    if (t != current) {
      if (current >= 0) in_window_at.emplace_back(current, all_in);
      current = t;
      all_in = true;
    }
    const double hps = r.number("hps");
    all_in = all_in && hps >= r.number("target_min") &&
             hps <= r.number("target_max");
  }
  if (current >= 0) in_window_at.emplace_back(current, all_in);

  double total_s = 0.0;
  int events = 0;
  for (const ScenarioEvent& event : scenario.events) {
    if (event.time <= 0 || event.time >= run_end) continue;
    ++events;
    TimeUs reacquired = run_end;
    for (const auto& [t, in] : in_window_at) {
      if (t < event.time) continue;
      if (in) {
        reacquired = t;
        break;
      }
    }
    total_s += us_to_sec(reacquired - event.time);
  }
  *events_out = events;
  return events > 0 ? total_s / events : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  double duration_sec = 60.0;
  int sample_ticks = 10;
  std::string out_path = "BENCH_scenarios.json";
  flags::Parser cli("scenario_suite");
  cli.flag("--duration SEC", &duration_sec,
           "simulated seconds per scenario run (default 60)")
      .flag("--sample-ticks N", &sample_ticks,
            "trace capture cadence in engine ticks (default 10)")
      .flag("--out FILE", &out_path,
            "perf record (default BENCH_scenarios.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }

  const std::vector<std::string> variants{"HARS-E", "MP-HARS-E"};
  std::vector<SuiteRow> rows;
  const auto suite_start = std::chrono::steady_clock::now();

  for (const std::string& name : ScenarioRegistry::instance().names()) {
    const Scenario scenario = ScenarioRegistry::instance().get(name);
    for (const std::string& variant : variants) {
      TraceSink sink(sample_ticks);
      ExperimentBuilder builder;
      builder.scenario(scenario)
          .variant(variant)
          .duration_sec(duration_sec)
          .capture(sink);
      const auto start = std::chrono::steady_clock::now();
      const ExperimentResult result = builder.build().run();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      (void)result;
      SuiteRow row;
      row.scenario = name;
      row.variant = variant;
      row.wall_ms = wall_ms;
      row.mean_adapt_latency_s = mean_adapt_latency_s(
          scenario, sink, sec_to_us(duration_sec), &row.events);
      row.samples = sink.samples().size();
      rows.push_back(row);
      std::printf("%-14s %-10s wall %7.1f ms  events %d  "
                  "adapt-latency %.2f s  samples %zu\n",
                  name.c_str(), variant.c_str(), row.wall_ms, row.events,
                  row.mean_adapt_latency_s, row.samples);
    }
  }

  const double suite_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - suite_start)
          .count();

  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"scenario_suite\",\n"
      << "  \"duration_sec\": " << format_number(duration_sec) << ",\n"
      << "  \"sample_ticks\": " << sample_ticks << ",\n"
      << "  \"wall_ms\": " << format_number(suite_wall_ms) << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SuiteRow& row = rows[i];
    out << "    {\"scenario\": \"" << json::escape(row.scenario)
        << "\", \"variant\": \"" << json::escape(row.variant)
        << "\", \"wall_ms\": " << format_number(row.wall_ms)
        << ", \"events\": " << row.events
        << ", \"mean_adapt_latency_s\": "
        << format_number(row.mean_adapt_latency_s)
        << ", \"samples\": " << row.samples << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu runs, %.1f ms)\n", out_path.c_str(), rows.size(),
              suite_wall_ms);
  return out.good() ? 0 : 1;
}
