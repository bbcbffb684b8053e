#include "core/power_profiler.hpp"

#include "hmp/power_sensor.hpp"
#include "util/rng.hpp"

namespace hars {

namespace {

ClusterPowerCoeffs profile_cluster(const Machine& machine,
                                   const PowerModel& model, ClusterId cluster,
                                   Rng& rng) {
  ClusterPowerCoeffs coeffs;
  const int levels = machine.num_freq_levels(cluster);
  const int cores = machine.cluster_core_count(cluster);
  // The microbenchmark owns the machine while profiling; it sweeps the
  // cluster's frequency without touching the caller's machine state, so
  // each level's truth comes from the model at that level's frequency.
  const bool any_online =
      (machine.online_mask() & machine.cluster_mask(cluster)).any();
  for (int level = 0; level < levels; ++level) {
    const double f = machine.freq_ghz_at_level(cluster, level);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int c = 1; c <= cores; ++c) {
      for (int u = 1; u <= kProfileUtilizationSteps; ++u) {
        const double util = static_cast<double>(u) /
                            static_cast<double>(kProfileUtilizationSteps);
        const double busy_sum = c * util;
        for (int rep = 0; rep < kProfileRepeats; ++rep) {
          const double truth =
              model.cluster_power_given(cluster, f, any_online, busy_sum);
          const double measured =
              truth *
              (1.0 + rng.normal(0.0, PowerSensor::kDefaultNoiseStddev));
          xs.push_back(busy_sum);
          ys.push_back(measured);
        }
      }
    }
    const RegressionFit fit = fit_linear_1d(xs, ys);
    coeffs.alpha.push_back(fit.coeffs.empty() ? 0.0 : fit.coeffs.front());
    coeffs.beta.push_back(fit.intercept);
    coeffs.r_squared.push_back(fit.r_squared);
  }
  return coeffs;
}

}  // namespace

PowerCoeffTable profile_power(const Machine& machine, const PowerModel& model) {
  Rng rng(kProfileSeed);
  PowerCoeffTable table;
  table.big = profile_cluster(machine, model, machine.fastest_cluster(), rng);
  table.little =
      profile_cluster(machine, model, machine.slowest_cluster(), rng);
  return table;
}

}  // namespace hars
