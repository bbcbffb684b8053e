// Power profiling (thesis §3.1.2).
//
// The paper constructs the power estimator's linear-regression models from
// data collected by a microbenchmark that stresses the cores while sweeping
// the number of cores, the frequency level and the CPU utilization, reading
// the board's power sensors. We reproduce that procedure against the
// simulated platform: for every (cluster, frequency level) we "run" the
// microbenchmark at a grid of (cores, utilization) operating points, read
// noisy sensor values, and fit
//     P = alpha * (C_used * U) + beta
// per level. The resulting coefficient tables are what PowerEstimator uses.
#pragma once

#include <vector>

#include "hmp/machine.hpp"
#include "hmp/power_model.hpp"
#include "util/stats.hpp"

namespace hars {

/// alpha/beta per DVFS level for one cluster.
struct ClusterPowerCoeffs {
  std::vector<double> alpha;  ///< Indexed by frequency level.
  std::vector<double> beta;
  std::vector<double> r_squared;  ///< Fit quality per level (diagnostics).
};

struct PowerCoeffTable {
  ClusterPowerCoeffs big;
  ClusterPowerCoeffs little;
};

/// The campaign's grid: kProfileUtilizationSteps utilizations in (0, 1]
/// per core count, kProfileRepeats sensor readings per operating point,
/// each with PowerSensor::kDefaultNoiseStddev noise drawn from one
/// kProfileSeed stream.
inline constexpr int kProfileUtilizationSteps = 4;
inline constexpr int kProfileRepeats = 3;
inline constexpr std::uint64_t kProfileSeed = 2024;

/// Runs the profiling campaign and fits the per-level models.
PowerCoeffTable profile_power(const Machine& machine, const PowerModel& model);

}  // namespace hars
