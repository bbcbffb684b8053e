// tick_bench: the simulation tick-throughput grid.
//
// Measures ticks/sec for every registered platform x runtime version x
// valid app count and writes BENCH_tick.json. Each case runs --duration
// simulated seconds three times, after an untimed one-second warm-up run
// that fills the calibration and static-optimal caches, so the timed runs
// measure the engine and the manager only; the record keeps their
// median, min and max, so a reader sees each case's spread. The default
// duration gives every timed run at least 1 s of wall time; CI runs a
// shorter one that keeps the grid near a minute and a half.
//
// Records identity (across --jobs, telemetry on/off and the reference
// paths) is asserted by ctest, not here.
//
//   tick_bench [--duration SEC] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <fstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "sweep/result_sink.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using namespace hars;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Timed runs per case.
constexpr int kRuns = 3;

struct GridCase {
  std::string platform;
  std::string variant;
  int apps = 1;
  double wall_ms[kRuns] = {};  ///< Sorted after the runs.
  double median_ms() const { return wall_ms[kRuns / 2]; }
};

const std::vector<ParsecBenchmark>& grid_benchmarks() {
  static const std::vector<ParsecBenchmark> k = {
      ParsecBenchmark::kSwaptions, ParsecBenchmark::kBodytrack,
      ParsecBenchmark::kFluidanimate, ParsecBenchmark::kFacesim};
  return k;
}

Experiment build_case(const GridCase& c, double duration_sec) {
  ExperimentBuilder b;
  b.platform(std::string_view(c.platform)).variant(c.variant);
  for (int i = 0; i < c.apps; ++i) {
    // Explicit targets: the grid measures tick throughput, not the
    // baseline probe a derived target would run.
    b.app(grid_benchmarks()[static_cast<std::size_t>(i)])
        .target(PerfTarget::around(1.0 + 0.2 * i));
  }
  b.duration_sec(duration_sec);
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  double duration_sec = 20000.0;
  std::string out_path = "BENCH_tick.json";
  flags::Parser cli("tick_bench");
  cli.flag("--duration SEC", &duration_sec,
           "simulated seconds per case (default 20000)")
      .flag("--out FILE", &out_path, "perf record (default BENCH_tick.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }
  const double ticks = duration_sec / us_to_sec(SimConfig{}.tick_us);

  std::vector<GridCase> grid;
  for (const std::string& platform : PlatformRegistry::instance().names()) {
    for (const std::string& variant : VariantRegistry::instance().names()) {
      const VariantTraits& traits =
          VariantRegistry::instance().find(variant)->traits;
      for (int apps : {1, 2, 4}) {
        if (apps >= traits.min_apps && apps <= traits.max_apps) {
          grid.push_back(GridCase{platform, variant, apps});
        }
      }
    }
  }

  const auto grid_start = Clock::now();
  for (GridCase& c : grid) {
    (void)build_case(c, 1.0).run();
    const Experiment experiment = build_case(c, duration_sec);
    for (double& wall_ms : c.wall_ms) {
      const auto start = Clock::now();
      (void)experiment.run();
      wall_ms = ms_since(start);
    }
    std::sort(std::begin(c.wall_ms), std::end(c.wall_ms));
    std::printf(
        "grid %-11s %-10s apps=%d  %8.1f ms [%.1f, %.1f]  %8.1f kticks/s\n",
        c.platform.c_str(), c.variant.c_str(), c.apps, c.median_ms(),
        c.wall_ms[0], c.wall_ms[kRuns - 1], ticks / c.median_ms());
  }
  const double grid_wall_ms = ms_since(grid_start);

  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"tick_bench\",\n"
      << "  \"duration_sec\": " << format_number(duration_sec)
      << ",\n  \"runs\": " << kRuns
      << ",\n  \"cases\": " << grid.size()
      << ",\n  \"wall_ms\": " << format_number(grid_wall_ms)
      << ",\n  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridCase& c = grid[i];
    out << "    {\"platform\": \"" << json::escape(c.platform)
        << "\", \"variant\": \"" << json::escape(c.variant)
        << "\", \"apps\": " << c.apps
        << ", \"wall_ms\": " << format_number(c.median_ms())
        << ", \"wall_ms_min\": " << format_number(c.wall_ms[0])
        << ", \"wall_ms_max\": " << format_number(c.wall_ms[kRuns - 1])
        << ", \"ticks_per_sec\": "
        << format_number(ticks / (c.median_ms() / 1000.0)) << "}"
        << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu cases, %.1f s)\n", out_path.c_str(), grid.size(),
              grid_wall_ms / 1000.0);
  return out.good() ? 0 : 1;
}
