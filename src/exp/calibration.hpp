// Per-benchmark calibration: measures the maximum achievable performance
// (the baseline configuration: all cores online at top frequency under the
// GTS scheduler) from which the paper derives its targets — default 50%+/-5%
// and high 75%+/-5% of the maximum (§5.1.1).
#pragma once

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

/// Runs the baseline measurement on `platform`. Results are memoized per
/// (platform signature, bench, seed, threads, duration) because every
/// figure re-uses the same calibration.
Calibration calibrate_benchmark(const PlatformSpec& platform,
                                ParsecBenchmark bench, int threads = 8,
                                std::uint64_t seed = 1,
                                TimeUs duration = 40 * kUsPerSec);

}  // namespace hars
