// hars_client: CLI client for the hars_simd daemon.
//
//   hars_client sweep --connect :7414 --bench SW --bench BO
//       --version HARS-E --csv out.csv [--jsonl out.jsonl]
//   hars_client ping|status|stats|metrics|drain [--connect ADDR]
//   hars_client cancel ID [--connect ADDR]
//
// `sweep` submits a declarative campaign (the same axes hars_sim's
// sweep mode exposes) and streams the daemon's records into CSV/JSONL
// sinks — byte-identical to running the campaign locally. --bench-json
// writes a BENCH_daemon.json perf record (submit-to-first-record
// latency, streamed records/sec) for tools/bench_report.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "svc/campaign_scheduler.hpp"
#include "svc/client.hpp"
#include "sweep/result_sink.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

int run_sweep(svc::ServiceClient& client, const svc::CampaignRequest& campaign,
              const std::string& csv_path, const std::string& jsonl_path,
              const std::string& bench_json_path) {
  std::unique_ptr<CsvSink> csv;
  std::unique_ptr<JsonlSink> jsonl;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvSink>(csv_path);
    if (!csv->ok()) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
  }
  if (!jsonl_path.empty()) {
    jsonl = std::make_unique<JsonlSink>(jsonl_path);
    if (!jsonl->ok()) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
      return 1;
    }
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point submit_time = Clock::now();
  std::optional<Clock::time_point> first_record_time;
  std::uint64_t records = 0;

  const svc::SubmitOutcome outcome =
      client.submit_sweep(campaign, [&](const Record& record) {
        if (!first_record_time.has_value()) first_record_time = Clock::now();
        ++records;
        if (csv) csv->write(record);
        if (jsonl) jsonl->write(record);
      });
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - submit_time)
          .count();

  if (!outcome.ok) {
    std::fprintf(stderr, "submit rejected (%s): %s\n",
                 svc::error_code_name(outcome.error->code),
                 outcome.error->message.c_str());
    return 1;
  }
  if (csv) csv->flush();
  if (jsonl) jsonl->flush();

  const svc::SummaryInfo& summary = outcome.summary;
  std::printf(
      "campaign %llu: %s, %llu cases, emitted through %llu, %llu failed, "
      "%llu records, %.1f ms\n",
      static_cast<unsigned long long>(summary.campaign),
      summary.status.c_str(), static_cast<unsigned long long>(summary.cases),
      static_cast<unsigned long long>(summary.emitted_through),
      static_cast<unsigned long long>(summary.failed),
      static_cast<unsigned long long>(records), wall_ms);
  if (!csv_path.empty()) std::printf("csv              %s\n", csv_path.c_str());
  if (!jsonl_path.empty()) {
    std::printf("jsonl            %s\n", jsonl_path.c_str());
  }

  if (!bench_json_path.empty()) {
    const double first_record_ms =
        first_record_time.has_value()
            ? std::chrono::duration<double, std::milli>(*first_record_time -
                                                        submit_time)
                  .count()
            : 0.0;
    const double records_per_sec =
        wall_ms > 0.0 ? 1e3 * static_cast<double>(records) / wall_ms : 0.0;
    std::ofstream out(bench_json_path);
    out << "{\n"
        << "  \"campaign\": \"daemon\",\n"
        << "  \"cases\": " << summary.cases << ",\n"
        << "  \"records\": " << records << ",\n"
        << "  \"wall_ms\": " << format_number(wall_ms) << ",\n"
        << "  \"first_record_ms\": " << format_number(first_record_ms) << ",\n"
        << "  \"records_per_sec\": " << format_number(records_per_sec) << "\n"
        << "}\n";
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", bench_json_path.c_str());
      return 1;
    }
    std::printf("bench json       %s\n", bench_json_path.c_str());
  }

  const bool failed = summary.failed > 0 || summary.status != "complete";
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string verb = "sweep";
  std::uint64_t cancel_target = 0;
  std::string connect = "tcp:127.0.0.1:7414";
  std::string csv_path;
  std::string jsonl_path;
  std::string bench_json_path;
  std::string metrics_out;
  svc::CampaignRequest campaign;

  flags::Parser cli("hars_client", "[VERB] [ID] [options]");
  cli.positional("VERB", &verb,
                 "sweep (default) | ping | status | stats | metrics |\n"
                 "drain | cancel")
      .positional("ID", &cancel_target, "campaign id (cancel only)")
      .flag("--connect ADDR", &connect,
            "daemon address (default tcp:127.0.0.1:7414)");
  svc::declare_campaign_flags(cli, &campaign);
  cli.flag("--start-case N", &campaign.start_case,
           "resume: skip cases below N (a drained summary's\n"
           "emitted_through)")
      .flag("--csv FILE", &csv_path, "write streamed records as CSV")
      .flag("--jsonl FILE", &jsonl_path, "write streamed records as JSON lines")
      .flag("--bench-json FILE", &bench_json_path,
            "write a BENCH_daemon.json perf record")
      .flag("--out FILE", &metrics_out,
            "metrics: write the Prometheus text to FILE\n(default stdout)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }
  if ((verb == "cancel") != cli.given("ID")) {
    std::fputs(verb == "cancel" ? "cancel needs a campaign id\n"
                                : "only cancel takes a campaign id\n",
               stderr);
    return 2;
  }

  try {
    svc::ServiceClient client(svc::Address::parse(connect));
    if (verb == "sweep") {
      return run_sweep(client, campaign, csv_path, jsonl_path,
                       bench_json_path);
    } else if (verb == "ping") {
      const bool ok = client.ping();
      std::printf("%s\n", ok ? "pong" : "no pong");
      return ok ? 0 : 1;
    } else if (verb == "status") {
      const std::vector<svc::CampaignStatus> rows = client.status();
      if (rows.empty()) {
        std::printf("no active campaigns\n");
      } else {
        std::printf("%-10s %-11s %10s %10s\n", "campaign", "state", "cases",
                    "emitted");
        for (const svc::CampaignStatus& row : rows) {
          std::printf("%-10llu %-11s %10llu %10llu\n",
                      static_cast<unsigned long long>(row.campaign),
                      row.state.c_str(),
                      static_cast<unsigned long long>(row.cases),
                      static_cast<unsigned long long>(row.emitted));
        }
      }
      return 0;
    } else if (verb == "stats") {
      const svc::StatsInfo stats = client.stats();
      std::printf("sessions         %llu\n",
                  static_cast<unsigned long long>(stats.sessions));
      std::printf("campaigns        %llu active, %llu total\n",
                  static_cast<unsigned long long>(stats.campaigns_active),
                  static_cast<unsigned long long>(stats.campaigns_total));
      std::printf("records          %llu streamed\n",
                  static_cast<unsigned long long>(stats.records_streamed));
      for (const svc::CacheStat& cache : stats.caches) {
        std::printf("cache %-10s %llu hits, %llu misses, %llu entries\n",
                    cache.name.c_str(),
                    static_cast<unsigned long long>(cache.hits),
                    static_cast<unsigned long long>(cache.misses),
                    static_cast<unsigned long long>(cache.entries));
      }
      return 0;
    } else if (verb == "metrics") {
      const std::string text = client.metrics_text();
      if (metrics_out.empty()) {
        std::fputs(text.c_str(), stdout);
      } else {
        std::ofstream out(metrics_out);
        out << text;
        if (!out.good()) {
          std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
          return 1;
        }
        std::printf("metrics          %s\n", metrics_out.c_str());
      }
      return 0;
    } else if (verb == "cancel") {
      svc::ErrorInfo error;
      if (client.cancel(cancel_target, &error)) {
        std::printf("cancelled %llu\n",
                    static_cast<unsigned long long>(cancel_target));
        return 0;
      }
      std::fprintf(stderr, "cancel failed (%s): %s\n",
                   svc::error_code_name(error.code), error.message.c_str());
      return 1;
    } else if (verb == "drain") {
      const bool ok = client.drain();
      std::printf("%s\n", ok ? "draining" : "drain rejected");
      return ok ? 0 : 1;
    }
    std::fprintf(stderr, "unknown verb '%s'\n", verb.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hars_client: %s\n", e.what());
    return 1;
  }
}
