// Per-benchmark calibration: measures the maximum achievable performance
// (the baseline configuration: all cores online at top frequency under the
// GTS scheduler) from which the paper derives its targets — default 50%+/-5%
// and high 75%+/-5% of the maximum (§5.1.1).
#pragma once

#include <vector>

#include "apps/parsec.hpp"
#include "heartbeats/heartbeat.hpp"
#include "hmp/platform_spec.hpp"
#include "util/common.hpp"

namespace hars {

struct Calibration {
  double max_rate_hps = 0.0;
  PerfTarget default_target;  ///< 50% +/- 5%.
  PerfTarget high_target;     ///< 75% +/- 5%.

  PerfTarget target_for_fraction(double fraction, double tol = 0.05) const {
    return PerfTarget::around(fraction * max_rate_hps, tol);
  }
};

/// Measured span of a calibration, after the warm-up to the first beat.
inline constexpr TimeUs kCalibrationUs = 40 * kUsPerSec;

/// Runs the baseline measurement on `platform`. Results are memoized per
/// (platform signature, bench, seed, threads, duration) because every
/// figure re-uses the same calibration.
Calibration calibrate_benchmark(const PlatformSpec& platform,
                                ParsecBenchmark bench, int threads = 8,
                                std::uint64_t seed = 1,
                                TimeUs duration = kCalibrationUs);

/// One calibrate_benchmark call of a batch (default duration).
struct CalibrationRequest {
  ParsecBenchmark bench = ParsecBenchmark::kSwaptions;
  int threads = 8;
  std::uint64_t seed = 1;
};

/// calibrate_benchmark for every request, result i for request i. The
/// requests not memoized yet run in parallel (util/fan_out.hpp); the rest
/// are looked up, so a fully cached batch starts no thread. Each request
/// is exactly one cache lookup, as in a loop of calibrate_benchmark.
std::vector<Calibration> calibrate_benchmarks(
    const PlatformSpec& platform,
    const std::vector<CalibrationRequest>& requests);

}  // namespace hars
