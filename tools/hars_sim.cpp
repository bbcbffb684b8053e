// hars_sim: command-line front end for the unified Experiment API.
//
//   hars_sim --bench SW --version HARS-E --fraction 0.5 --duration 120
//            [--trace trace.csv]
//   hars_sim sweep --bench SW --bench BO --version Baseline --version HARS-E
//            --jobs 4 [--csv out.csv] [--jsonl out.jsonl]
//
// Runs one or more benchmarks under any registered runtime version on the
// simulated big.LITTLE platform and prints the metrics the paper's
// figures are built from. --version accepts every VariantRegistry name
// (Baseline, SO, HARS-I/E/EI, CONS-I, MP-HARS-I/E, plus user-registered
// variants); repeat --bench to run a multi-application case. With
// --trace, each app's behaviour trace (heartbeat rate, core counts,
// frequencies) is written as CSV.
//
// In `sweep` mode, repeated --bench/--version/--fraction/--distance flags
// become axes of a cartesian campaign whose cases run on --jobs N threads
// (0 = the hardware threads it may use); results stream to stdout as a
// table and optionally to --csv / --jsonl sinks. --derive-seeds gives
// every case a coordinate-derived RNG seed.
//
// The flags parse straight into an svc::CampaignRequest, and both modes
// build their experiments with the daemon's own mapping
// (svc::build_run_experiment, svc::expand_sweep_campaign); only the
// local-only settings (--backend, --capture, telemetry, --trace) are
// layered on top. With --remote ADDR the same request is submitted to a
// hars_simd daemon instead, so the streamed records and the printed run
// report are byte-identical to local execution.
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend_registry.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "hmp/platform_registry.hpp"
#include "obs/telemetry.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/trace_sink.hpp"
#include "svc/campaign_scheduler.hpp"
#include "svc/client.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

void list_platforms() {
  std::printf("%-14s %-8s %-6s %s\n", "platform", "clusters", "cores",
              "topology (type count x ipc @ DVFS range GHz)");
  for (const std::string& name : PlatformRegistry::instance().names()) {
    const PlatformSpec spec = PlatformRegistry::instance().get(name);
    std::string topo;
    int cores = 0;
    for (const PlatformCluster& cluster : spec.clusters) {
      const ClusterSpec& t = cluster.topology;
      cores += t.core_count;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s %dx%.1f @ %.2f-%.2f",
                    topo.empty() ? "" : " | ",
                    core_type_name(t.type), t.core_count, t.ipc,
                    t.freqs_ghz.front(), t.freqs_ghz.back());
      topo += buf;
    }
    std::printf("%-14s %-8zu %-6d %s\n", spec.name.c_str(),
                spec.clusters.size(), cores, topo.c_str());
  }
}

void list_scenarios() {
  std::printf("%-14s %-7s %s\n", "scenario", "events", "timeline");
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    std::string timeline;
    for (const ScenarioEvent& e : s->events) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.0fs:%s",
                    timeline.empty() ? "" : " ",
                    us_to_sec(e.time), scenario_event_name(e.kind));
      timeline += buf;
    }
    std::printf("%-14s %-7zu %s\n", name.c_str(), s->events.size(),
                timeline.c_str());
  }
}

int run_replay(const std::string& path) {
  try {
    const ReplayOutcome outcome = replay_trace_file(path);
    std::printf("replay           %s: %s\n", path.c_str(),
                outcome.ok ? "bit-identical" : "DIVERGENT");
    if (!outcome.ok) std::fprintf(stderr, "%s\n", outcome.message.c_str());
    return outcome.ok ? 0 : 1;
  } catch (const ScenarioError& error) {
    std::fprintf(stderr, "replay failed: %s\n", error.what());
    return 2;
  }
}

void list_backends() {
  std::printf("%-12s %s\n", "backend", "description");
  for (const BackendEntry& e : BackendRegistry::instance().entries()) {
    std::printf("%-12s %s\n", e.name.c_str(), e.description.c_str());
  }
}

void write_trace(const std::string& path, const PerfTarget& target,
                 const std::vector<TracePoint>& trace) {
  CsvWriter csv(path);
  if (!csv.ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  csv.header({"hb_index", "hps", "b_core", "l_core", "target_min",
              "target_max", "b_freq_ghz", "l_freq_ghz"});
  for (const TracePoint& p : trace) {
    csv.row({static_cast<double>(p.hb_index), p.hps,
             static_cast<double>(p.big_cores),
             static_cast<double>(p.little_cores), target.min, target.max,
             p.big_freq_ghz, p.little_freq_ghz});
  }
  std::printf("trace            %s (%zu points)\n", path.c_str(),
              trace.size());
}

// Writes one trace CSV per app, suffixing slot index + label (the bench
// code, or the scenario's app label) when the run had several apps, so
// repeated benchmarks get distinct files.
void write_traces(const std::string& trace_path,
                  const svc::RunResultPayload& payload) {
  if (payload.apps.size() == 1) {
    const svc::RunAppPayload& app = payload.apps.front();
    write_trace(trace_path, app.target, app.trace);
    return;
  }
  for (std::size_t i = 0; i < payload.apps.size(); ++i) {
    std::string path = trace_path;
    std::string suffix = "_";
    suffix += std::to_string(i + 1);
    suffix += '_';
    suffix += payload.apps[i].label;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.rfind('.');
    const bool dot_in_name = dot != std::string::npos &&
                             (slash == std::string::npos || dot > slash);
    path.insert(dot_in_name ? dot : path.size(), suffix);
    write_trace(path, payload.apps[i].target, payload.apps[i].trace);
  }
}

// The human-readable run report, printed from the wire payload struct so
// the local path (via run_payload_of) and --remote produce identical
// bytes. `campaign` carries its defaults (svc::apply_campaign_defaults).
void print_run_report(const svc::RunResultPayload& payload,
                      const svc::CampaignRequest& campaign) {
  std::printf("version          %s\n", campaign.variants.front().c_str());
  if (!campaign.platforms.empty()) {
    std::printf("platform         %s\n", campaign.platforms.front().c_str());
  }
  if (!campaign.scenarios.empty()) {
    std::printf("scenario         %s\n", campaign.scenarios.front().c_str());
  }
  for (const svc::RunAppPayload& app : payload.apps) {
    if (campaign.scenarios.empty()) {
      // A bench app's label is its PARSEC code.
      const std::optional<ParsecBenchmark> bench =
          parse_parsec_benchmark(app.label);
      std::printf("bench            %s (%s)\n", app.label.c_str(),
                  bench ? parsec_name(*bench) : "?");
    } else {
      std::string departed;
      if (app.depart_time_us >= 0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ", departed %.1fs",
                      us_to_sec(app.depart_time_us));
        departed = buf;
      }
      std::printf("app              %s (arrived %.1fs%s)\n", app.label.c_str(),
                  us_to_sec(app.spawn_time_us), departed.c_str());
    }
    std::printf("target           %.3f hb/s [%.3f, %.3f]\n", app.target.avg(),
                app.target.min, app.target.max);
    std::printf("avg rate         %.3f hb/s\n", app.metrics.avg_rate_hps);
    std::printf("norm perf        %.3f\n", app.metrics.norm_perf);
    std::printf("in-window        %.1f%%\n",
                100.0 * app.metrics.in_window_fraction);
    std::printf("avg power        %.3f W\n", app.metrics.avg_power_w);
    std::printf("perf/watt        %.3f\n", app.metrics.perf_per_watt);
    std::printf("energy/beat      %.3f J\n", app.metrics.energy_per_beat_j);
    std::printf("manager CPU      %.2f%%\n", app.metrics.manager_cpu_pct);
    std::printf("heartbeats       %lld\n",
                static_cast<long long>(app.metrics.heartbeats));
  }
  if (payload.has_static_state) {
    std::printf("static state     %s\n", payload.static_state_text.c_str());
  }
}

/// Settings that never cross the wire: the daemon to submit to, the
/// backend and pool a local run uses, and the files it writes besides
/// the report.
struct LocalOptions {
  std::string remote;
  std::string backend;
  std::string capture_path;
  int sample_ticks = 10;
  std::string trace_path;
  obs::TelemetryConfig telemetry;
  int jobs = SweepOptions{}.jobs;
  std::string csv_path;
  std::string jsonl_path;
};

int run_sweep_mode(const svc::CampaignRequest& campaign,
                   const LocalOptions& local) {
  if (!local.backend.empty() && local.backend != "sim") {
    std::fprintf(stderr,
                 "sweep mode is a simulation campaign; --backend %s is "
                 "run-mode only\n",
                 local.backend.c_str());
    return 2;
  }
  SweepSpec spec;
  if (const std::string error =
          svc::expand_sweep_campaign(campaign, &spec, nullptr);
      !error.empty()) {
    std::fprintf(stderr, "hars_sim: %s\n", error.c_str());
    return 2;
  }

  TableSink table_sink;
  std::unique_ptr<CsvSink> csv_sink;
  std::unique_ptr<JsonlSink> jsonl_sink;
  if (!local.csv_path.empty()) {
    csv_sink = std::make_unique<CsvSink>(local.csv_path);
    if (!csv_sink->ok()) {
      std::fprintf(stderr, "cannot write %s\n", local.csv_path.c_str());
      return 1;
    }
  }
  if (!local.jsonl_path.empty()) {
    jsonl_sink = std::make_unique<JsonlSink>(local.jsonl_path);
    if (!jsonl_sink->ok()) {
      std::fprintf(stderr, "cannot write %s\n", local.jsonl_path.c_str());
      return 1;
    }
  }

  // Either branch leaves the sinks holding byte-identical records: the
  // daemon expands and runs the same declarative campaign through the
  // same engine and streams each cell verbatim.
  std::optional<svc::SummaryInfo> remote_summary;
  SweepReport report;
  std::size_t failures = 0;
  if (!local.remote.empty()) {
    try {
      svc::ServiceClient client(svc::Address::parse(local.remote));
      const svc::SubmitOutcome outcome =
          client.submit_sweep(campaign, [&](const Record& record) {
            table_sink.write(record);
            if (csv_sink) csv_sink->write(record);
            if (jsonl_sink) jsonl_sink->write(record);
          });
      if (!outcome.ok) {
        std::fprintf(stderr, "remote submit rejected (%s): %s\n",
                     svc::error_code_name(outcome.error->code),
                     outcome.error->message.c_str());
        return 1;
      }
      remote_summary = outcome.summary;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "remote %s: %s\n", local.remote.c_str(), e.what());
      return 1;
    }
    if (csv_sink) csv_sink->flush();
    if (jsonl_sink) jsonl_sink->flush();
    failures = remote_summary->failed;
  } else {
    SweepOptions options = sweep_options_for_jobs(local.jobs);
    options.keep_results = false;
    SweepEngine engine(options);
    engine.add_sink(table_sink);
    if (csv_sink) engine.add_sink(*csv_sink);
    if (jsonl_sink) engine.add_sink(*jsonl_sink);

    report = engine.run(spec);
    failures = report_sweep_failures(std::cerr, report);
  }

  ReportTable table("sweep results");
  std::vector<std::string> columns;
  if (!campaign.benches.empty()) columns.push_back("bench");
  if (!campaign.scenarios.empty()) {
    columns.push_back("scenario");
    columns.push_back("app");
  }
  columns.push_back("variant");
  if (!campaign.platforms.empty()) columns.push_back("platform");
  if (!campaign.fractions.empty()) columns.push_back("fraction");
  if (!campaign.distances.empty()) columns.push_back("distance");
  for (const char* metric : {"norm_perf", "avg_power_w", "perf_per_watt",
                             "in_window_fraction"}) {
    columns.push_back(metric);
  }
  table.set_columns(columns);
  for (const Record& row : table_sink.rows()) {
    std::vector<std::string> cells;
    for (const std::string& column : columns) {
      const RecordCell* cell = row.find(column);
      cells.push_back(cell != nullptr
                          ? (cell->numeric ? format_value(cell->number)
                                           : cell->text)
                          : std::string());
    }
    table.add_text_row(cells);
  }
  table.print(std::cout);

  if (!local.csv_path.empty()) {
    std::printf("csv              %s\n", local.csv_path.c_str());
  }
  if (!local.jsonl_path.empty()) {
    std::printf("jsonl            %s\n", local.jsonl_path.c_str());
  }
  if (remote_summary.has_value()) {
    // The daemon counted cases and wall time; jobs are a daemon-side
    // setting, so the summary names the campaign id instead.
    std::printf("campaign 'hars_sim_sweep': %llu cases, remote campaign %llu "
                "(%s), %s ms, %llu failed\n",
                static_cast<unsigned long long>(remote_summary->cases),
                static_cast<unsigned long long>(remote_summary->campaign),
                remote_summary->status.c_str(),
                format_number(remote_summary->wall_ms).c_str(),
                static_cast<unsigned long long>(remote_summary->failed));
    return failures > 0 || remote_summary->status != "complete" ? 1 : 0;
  }
  print_sweep_summary(std::cout, report);
  return failures > 0 ? 1 : 0;
}

int run_run_mode(const svc::CampaignRequest& campaign,
                 const LocalOptions& local) {
  if (!local.remote.empty()) {
    if (!local.capture_path.empty()) {
      std::fprintf(stderr,
                   "--capture is local-only (scenario traces do not cross "
                   "the wire); drop --remote to capture\n");
      return 2;
    }
    if (local.telemetry.enabled) {
      std::fprintf(stderr,
                   "telemetry flags are local-only; scrape the daemon's "
                   "metrics verb instead (hars_client metrics)\n");
      return 2;
    }
    if (!local.backend.empty() && local.backend != "sim") {
      std::fprintf(stderr,
                   "--backend %s is local-only (the daemon simulates); use "
                   "hars_agentd on the target machine instead\n",
                   local.backend.c_str());
      return 2;
    }
  }
  ExperimentBuilder builder;
  if (const std::string error = svc::build_run_experiment(campaign, &builder);
      !error.empty()) {
    std::fprintf(stderr, "hars_sim: %s\n", error.c_str());
    return 2;
  }
  if (campaign.scenarios.empty() && !local.capture_path.empty()) {
    std::fprintf(stderr, "--capture requires --scenario\n");
    return 2;
  }

  // Both branches produce the same payload struct, so the printed
  // report is byte-identical whether the experiment ran here or in a
  // hars_simd daemon.
  svc::RunResultPayload payload;
  if (!local.remote.empty()) {
    svc::CampaignRequest request = campaign;
    request.want_trace = !local.trace_path.empty();
    try {
      svc::ServiceClient client(svc::Address::parse(local.remote));
      const svc::SubmitOutcome outcome = client.submit_run(request);
      if (!outcome.ok) {
        std::fprintf(stderr, "remote submit rejected (%s): %s\n",
                     svc::error_code_name(outcome.error->code),
                     outcome.error->message.c_str());
        return outcome.error->code == svc::ErrorCode::kBadRequest ? 2 : 1;
      }
      payload = outcome.result;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "remote %s: %s\n", local.remote.c_str(), e.what());
      return 1;
    }
  } else {
    TraceSink capture_sink(local.sample_ticks);
    if (!local.capture_path.empty()) builder.capture(capture_sink);
    if (local.telemetry.enabled) builder.telemetry(local.telemetry);
    ExperimentResult result;
    try {
      if (!local.backend.empty()) builder.backend(local.backend);
      result = builder.build().run();
    } catch (const ExperimentConfigError& error) {
      std::fprintf(stderr, "invalid configuration: %s\n", error.what());
      return 2;
    }

    if (!local.capture_path.empty()) {
      if (!capture_sink.write_file(local.capture_path)) {
        std::fprintf(stderr, "cannot write %s\n", local.capture_path.c_str());
        return 1;
      }
      std::printf("capture          %s (%zu samples)\n",
                  local.capture_path.c_str(), capture_sink.samples().size());
    }
    payload = svc::run_payload_of(result, !local.trace_path.empty());
  }

  const obs::TelemetryConfig& telemetry = local.telemetry;
  if (!telemetry.metrics_jsonl.empty()) {
    std::printf("metrics          %s\n", telemetry.metrics_jsonl.c_str());
  }
  if (!telemetry.metrics_csv.empty()) {
    std::printf("metrics csv      %s\n", telemetry.metrics_csv.c_str());
  }
  if (!telemetry.prometheus.empty()) {
    std::printf("prometheus       %s\n", telemetry.prometheus.c_str());
  }
  if (!telemetry.trace_json.empty()) {
    std::printf("trace spans      %s\n", telemetry.trace_json.c_str());
  }
  print_run_report(payload, campaign);
  if (!local.trace_path.empty()) write_traces(local.trace_path, payload);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  svc::CampaignRequest campaign;
  LocalOptions local;
  std::vector<std::string> gen_scenarios;
  std::uint64_t gen_seed = 0;
  std::string replay_path;
  bool list_platforms_flag = false;
  bool list_backends_flag = false;
  bool list_scenarios_flag = false;

  flags::Parser cli("hars_sim", "[sweep] [options]");
  cli.positional("sweep", &mode,
                 "run a cartesian campaign over the repeated flags");
  svc::declare_campaign_flags(cli, &campaign);
  cli.flag("--list-platforms", &list_platforms_flag,
           "print the platform catalogue and exit")
      .flag("--backend NAME", &local.backend,
            "execution backend (default sim); mock_linux and\n"
            "linux run the managers against a (fake or real)\n"
            "Linux platform; run mode only")
      .flag("--list-backends", &list_backends_flag,
            "print the backend catalogue and exit")
      .flag("--list-scenarios", &list_scenarios_flag,
            "print the scenario catalogue and exit")
      .flag("--gen-scenario P", &gen_scenarios,
            "generated scenario: a generator profile name\n"
            "(poisson, rush, storm, hotplug, retarget,\n"
            "churn, mixed) or a full gen:PROFILE:k=v;...\n"
            "name; repeatable (sugar for --scenario gen:...)")
      .flag("--gen-seed N", &gen_seed,
            "seed for --gen-scenario names that do not\n"
            "carry an explicit seed= parameter")
      .flag("--capture FILE", &local.capture_path,
            "write the scenario trace as JSONL (run mode,\n"
            "with --scenario; replayable bit-for-bit)")
      .flag("--replay FILE", &replay_path,
            "re-run a captured trace and verify it is\n"
            "bit-identical; exits non-zero on divergence")
      .flag("--sample-ticks N", &local.sample_ticks,
            "trace capture cadence in engine ticks (default 10)")
      .flag("--scheduler NAME", &campaign.scheduler,
            "chunk|interleaved|hierarchical (HARS versions)")
      .flag("--predictor NAME", &campaign.predictor,
            "last-value|kalman (HARS versions)")
      .flag("--policy NAME", &campaign.policy,
            "incremental|exhaustive|tabu (HARS versions)")
      .flag("--learn-ratio", &campaign.learn_ratio,
            "enable online big:little ratio learning")
      .flag("--remote ADDR", &local.remote,
            "submit through a hars_simd daemon (tcp:HOST:PORT\n"
            "or unix:PATH) instead of running in-process;\n"
            "records and report are byte-identical to a local\n"
            "run (--capture/--replay/telemetry are local-only)")
      .flag("--trace FILE", &local.trace_path,
            "write the behaviour trace(s) as CSV (run mode)")
      .flag("--metrics FILE", &local.telemetry.metrics_jsonl,
            "write telemetry metrics as JSON lines (run mode;\n"
            "any telemetry flag arms the metrics registry)")
      .flag("--metrics-csv FILE", &local.telemetry.metrics_csv,
            "write telemetry metrics as CSV (run mode)")
      .flag("--prom FILE", &local.telemetry.prometheus,
            "write telemetry metrics in Prometheus text\n"
            "format (run mode)")
      .flag("--trace-spans FILE", &local.telemetry.trace_json,
            "write one span per step() tick and per\n"
            "quiet span as Chrome trace-event JSON (run\n"
            "mode; open in chrome://tracing or Perfetto)")
      .flag("--csv FILE", &local.csv_path,
            "write result records as CSV (sweep mode)")
      .flag("--jsonl FILE", &local.jsonl_path,
            "write result records as JSON lines (sweep mode)");
  declare_jobs_flag(cli, &local.jobs);
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }

  if (list_platforms_flag) {
    list_platforms();
    return 0;
  }
  if (list_backends_flag) {
    list_backends();
    return 0;
  }
  if (list_scenarios_flag) {
    list_scenarios();
    return 0;
  }

  const bool sweep = mode == "sweep";
  if (!sweep && !mode.empty()) {
    std::fprintf(stderr, "hars_sim: '%s': unknown mode (expected sweep)\n",
                 mode.c_str());
    return 2;
  }
  const std::initializer_list<const char*> run_only = {
      "--capture", "--replay",      "--sample-ticks", "--scheduler",
      "--predictor", "--policy",    "--learn-ratio",  "--trace",
      "--metrics", "--metrics-csv", "--prom",         "--trace-spans"};
  const std::initializer_list<const char*> sweep_only = {"--csv", "--jsonl",
                                                         "--derive-seeds"};
  for (const char* name : sweep ? run_only : sweep_only) {
    if (cli.given(name)) {
      std::fprintf(stderr, "hars_sim: %s: %s mode only\n", name,
                   sweep ? "run" : "sweep");
      return 2;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path);

  // --gen-scenario is sugar for --scenario gen:...; --gen-seed fills in
  // the seed of every name that does not carry one.
  for (std::string name : gen_scenarios) {
    if (name.rfind("gen:", 0) != 0) name = "gen:" + name;
    if (cli.given("--gen-seed") && name.find("seed=") == std::string::npos) {
      name += name.find(':', 4) == std::string::npos ? ":" : ";";
      name += "seed=" + std::to_string(gen_seed);
    }
    campaign.scenarios.push_back(name);
  }
  local.telemetry.enabled = !local.telemetry.metrics_jsonl.empty() ||
                            !local.telemetry.metrics_csv.empty() ||
                            !local.telemetry.prometheus.empty() ||
                            !local.telemetry.trace_json.empty();
  campaign.mode = sweep ? "sweep" : "run";
  svc::apply_campaign_defaults(&campaign);
  return sweep ? run_sweep_mode(campaign, local)
               : run_run_mode(campaign, local);
}
