// Static-optimal (SO) version (thesis §5.1.1): the optimal core counts and
// frequency levels determined by offline simulation, then run statically
// under the Linux HMP scheduler.
//
// Procedure: sweep the full state space with the §3.1 estimators (using the
// benchmark's *true* big:little ratio — SO is an offline oracle), shortlist
// the most promising candidates, measure each shortlisted state with a
// short simulation, and keep the best measured normalized-perf/watt that
// satisfies the target.
#pragma once

#include <optional>

#include "apps/parsec.hpp"
#include "core/system_state.hpp"
#include "exp/calibration.hpp"
#include "hmp/platform_spec.hpp"

namespace hars {

/// Candidates measured by simulation, and each one's measured span.
inline constexpr int kStaticOptimalShortlist = 24;
inline constexpr TimeUs kStaticOptimalProbeUs = 15 * kUsPerSec;

struct StaticOptimalOptions {
  int threads = 8;
  std::uint64_t seed = 1;
  /// Platform the oracle sweeps; unset = the exynos5422 preset.
  std::optional<PlatformSpec> platform;
};

struct StaticOptimalResult {
  SystemState state;
  double measured_pp = 0.0;     ///< Normalized perf / watt at `state`.
  double measured_rate = 0.0;
  bool satisfies_target = false;
};

StaticOptimalResult find_static_optimal(ParsecBenchmark bench,
                                        const PerfTarget& target,
                                        const StaticOptimalOptions& options = {});

}  // namespace hars
