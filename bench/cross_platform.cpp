// cross_platform: the platform-diversity smoke campaign.
//
// For every registered platform (or the --platform subset), runs the full
// catalogue of runtime versions on one benchmark as a SweepSpec — twice,
// serially and on the worker pool — verifies the two passes produced
// byte-identical sink records, and writes BENCH_platforms.json with the
// per-platform wall clocks so CI tracks how the engine scales across
// topologies (2-cluster big.LITTLE, tri-cluster mobile, symmetric server,
// many-core).
//
//   cross_platform [--jobs N] [--duration SEC] [--platform NAME]...
//                  [--out BENCH_platforms.json]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

SweepSpec platform_spec(const std::string& platform, double duration_sec) {
  SweepSpec spec;
  spec.name("cross_platform_" + platform)
      .base([duration_sec](ExperimentBuilder& b) {
        b.duration_sec(duration_sec);
      })
      .platforms({platform})
      .benchmarks({ParsecBenchmark::kSwaptions})
      .variants(VariantRegistry::instance().names());
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

struct PlatformRun {
  std::string platform;
  std::size_t cases = 0;
  std::size_t failures = 0;
  double serial_wall_ms = 0.0;
  double parallel_wall_ms = 0.0;
  bool records_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_platforms.json";
  double duration_sec = 20.0;
  int jobs = 0;  // 0 = hardware concurrency.
  std::vector<std::string> platforms;
  flags::Parser cli("cross_platform");
  cli.flag("--jobs N", &jobs, "parallel pass workers (default 0 = hardware)")
      .flag("--duration SEC", &duration_sec,
            "simulated seconds per case (default 20)")
      .flag("--platform NAME", &platforms,
            "platform to run; repeatable (default: all registered)")
      .flag("--out FILE", &out_path,
            "perf record (default BENCH_platforms.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }
  if (platforms.empty()) platforms = PlatformRegistry::instance().names();
  for (const std::string& platform : platforms) {
    if (PlatformRegistry::instance().find(platform) == nullptr) {
      std::fprintf(stderr, "unknown platform %s\n", platform.c_str());
      return 2;
    }
  }

  std::vector<PlatformRun> runs;
  for (const std::string& platform : platforms) {
    const SweepSpec spec = platform_spec(platform, duration_sec);

    // Untimed warm-up populates the calibration / static-optimal caches so
    // the timed passes compare engine behaviour, not cache state.
    SweepEngine warmup(SweepOptions{.jobs = 1, .keep_results = false});
    (void)warmup.run(spec);

    SweepEngine serial(SweepOptions{.jobs = 1, .keep_results = false});
    const SweepReport serial_report = serial.run(spec);
    SweepEngine parallel(SweepOptions{.jobs = jobs, .keep_results = false});
    const SweepReport parallel_report = parallel.run(spec);

    PlatformRun run;
    run.platform = platform;
    run.cases = serial_report.outcomes.size();
    run.failures = report_sweep_failures(std::cerr, serial_report) +
                   report_sweep_failures(std::cerr, parallel_report);
    run.serial_wall_ms = serial_report.wall_ms;
    run.parallel_wall_ms = parallel_report.wall_ms;
    run.records_identical =
        records_fingerprint(serial_report) == records_fingerprint(parallel_report);
    std::printf("%-14s %2zu cases  serial %8.1f ms  parallel %8.1f ms  %s\n",
                platform.c_str(), run.cases, run.serial_wall_ms,
                run.parallel_wall_ms,
                run.records_identical ? "records identical" : "DIVERGENT");
    runs.push_back(run);
  }

  bool all_identical = true;
  std::size_t total_failures = 0;
  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"cross_platform\",\n  \"platforms\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PlatformRun& run = runs[i];
    all_identical &= run.records_identical;
    total_failures += run.failures;
    out << "    {\"platform\": \"" << run.platform
        << "\", \"cases\": " << run.cases
        << ", \"serial_wall_ms\": " << format_number(run.serial_wall_ms)
        << ", \"parallel_wall_ms\": " << format_number(run.parallel_wall_ms)
        << ", \"records_identical\": "
        << (run.records_identical ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu platforms, records %s)\n", out_path.c_str(),
              runs.size(), all_identical ? "identical" : "DIVERGENT");

  if (!all_identical || total_failures > 0) return 1;
  return 0;
}
