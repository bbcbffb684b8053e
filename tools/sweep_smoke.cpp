// sweep_smoke: the perf-trajectory smoke campaign.
//
// Runs a scaled-down fig5_3-style grid (HARS-EI, two benchmarks, three
// search distances, short measured span) twice — serially and with a
// worker pool — verifies the two passes produced byte-identical sink
// records, and writes BENCH_sweep.json with wall-clock, throughput and
// speedup numbers so successive PRs can track the engine's performance.
//
//   sweep_smoke [--jobs N] [--out BENCH_sweep.json]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

SweepSpec smoke_spec() {
  SweepSpec spec;
  spec.name("sweep_smoke")
      .base([](ExperimentBuilder& b) { b.duration(30 * kUsPerSec); })
      .benchmarks({ParsecBenchmark::kSwaptions, ParsecBenchmark::kBodytrack})
      .variants({"HARS-EI"})
      .search_distances({1, 5, 9});
  return spec;
}

std::string records_fingerprint(const SweepReport& report) {
  std::ostringstream out;
  CsvSink csv(out);
  for (const CaseOutcome& outcome : report.outcomes) {
    for (const Record& record : outcome.records) csv.write(record);
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sweep.json";
  int jobs = 0;  // 0 = hardware concurrency.
  flags::Parser cli("sweep_smoke");
  cli.flag("--jobs N", &jobs, "parallel pass workers (default 0 = hardware)")
      .flag("--out FILE", &out_path, "perf record (default BENCH_sweep.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }

  const SweepSpec spec = smoke_spec();

  // Untimed warm-up: populate the process-wide calibration / baseline
  // probe caches so both timed passes run with the same warm state —
  // otherwise the first pass pays every probe and the measured "speedup"
  // would conflate cache warm-up with pool parallelism.
  SweepEngine warmup(SweepOptions{.jobs = 1, .keep_results = false});
  (void)warmup.run(spec);

  SweepEngine serial(SweepOptions{.jobs = 1, .keep_results = false});
  const SweepReport serial_report = serial.run(spec);
  print_sweep_summary(std::cout, serial_report);

  SweepEngine parallel(SweepOptions{.jobs = jobs, .keep_results = false});
  const SweepReport parallel_report = parallel.run(spec);
  print_sweep_summary(std::cout, parallel_report);

  const std::size_t failures = report_sweep_failures(std::cerr, serial_report) +
                               report_sweep_failures(std::cerr, parallel_report);
  const bool identical =
      records_fingerprint(serial_report) == records_fingerprint(parallel_report);
  const double speedup = parallel_report.wall_ms > 0.0
                             ? serial_report.wall_ms / parallel_report.wall_ms
                             : 0.0;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"campaign\": \"" << spec.campaign() << "\",\n"
      << "  \"cases\": " << serial_report.outcomes.size() << ",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"serial_wall_ms\": " << format_number(serial_report.wall_ms)
      << ",\n"
      << "  \"serial_cases_per_sec\": "
      << format_number(serial_report.cases_per_sec()) << ",\n"
      << "  \"parallel_jobs\": " << parallel_report.jobs << ",\n"
      << "  \"parallel_wall_ms\": " << format_number(parallel_report.wall_ms)
      << ",\n"
      << "  \"parallel_cases_per_sec\": "
      << format_number(parallel_report.cases_per_sec()) << ",\n"
      << "  \"speedup\": " << format_number(speedup) << ",\n"
      << "  \"records_identical\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s (speedup %.2fx, records %s)\n", out_path.c_str(),
              speedup, identical ? "identical" : "DIVERGENT");

  if (!identical || failures > 0) return 1;
  return 0;
}
