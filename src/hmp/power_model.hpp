// Ground-truth power model for the simulated machine.
//
// Stands in for the physical power draw the ODROID-XU3's INA231 sensors
// observe. Per cluster:
//
//   P = sum_over_busy_cores( c_dyn * f^3 * busy )        (dynamic, V ~ f)
//     + c_leak * f * (1 + k_therm * busy_sum * f^2)      (leakage + thermal)
//     + c_mem * busy_sum                                  (uncore/memory)
//
// The thermal term makes the truth deliberately *nonlinear* in
// (cores_used * utilization), so the paper's linear-regression power
// estimator (Eq. 3.1/3.2) has realistic residuals instead of fitting the
// simulator exactly. Constants are calibrated so the Exynos preset lands
// near published XU3 figures (~5-6 W big cluster flat out, ~1 W little).
#pragma once

#include <vector>

#include "hmp/machine.hpp"

namespace hars {

struct PlatformSpec;  // hmp/platform_spec.hpp

struct PowerParams {
  double c_dyn = 0.0;    ///< W per core per GHz^3 at 100% busy.
  double c_leak = 0.0;   ///< W per GHz for the whole cluster when online.
  double c_mem = 0.0;    ///< W per fully-busy core (uncore/memory traffic).
  double k_therm = 0.0;  ///< Leakage inflation per (busy core * GHz^2).

  // The per-core-type defaults. A PlatformSpec carries power parameters
  // per cluster (hmp/platform_spec.hpp); these are the values its
  // from_machine, PlatformBuilder::cluster and the sysfs probe attach,
  // and that the sd855 and manycore presets start from.
  static PowerParams cortex_a15();
  static PowerParams cortex_a7();
  static PowerParams for_type(CoreType type);
};

class PowerModel {
 public:
  /// The model of `platform`'s per-cluster power parameters and base
  /// draw, reading frequencies and the online mask from `machine` (the
  /// platform's materialized machine, which must outlive the model).
  PowerModel(const Machine& machine, const PlatformSpec& platform);

  /// Instantaneous power of `cluster` given the sum of per-core busy
  /// fractions in [0, core_count]. A fully offline cluster (no online
  /// cores) draws nothing.
  double cluster_power(ClusterId cluster, double busy_sum) const;

  /// cluster_power with the machine state pre-read: `f` must equal the
  /// cluster's current freq_ghz and `any_online` whether any of its cores
  /// is online. Same expression, same operand order — bit-identical — but
  /// callers that snapshot the machine once per tick (SimEngine's
  /// TickScratch) skip the per-call machine queries.
  double cluster_power_given(ClusterId cluster, double f, bool any_online,
                             double busy_sum) const {
    const PowerParams& p = params_[static_cast<std::size_t>(cluster)];
    if (!any_online) return 0.0;
    const double dynamic = p.c_dyn * f * f * f * busy_sum;
    const double leakage = p.c_leak * f * (1.0 + p.k_therm * busy_sum * f * f);
    const double memory = p.c_mem * busy_sum;
    return dynamic + leakage + memory;
  }

  /// Total machine power for per-core busy fractions, including the
  /// platform base draw (memory/interconnect/board) that the paper's
  /// perf-per-watt denominators implicitly carry. The per-*cluster*
  /// estimator (Eq. 3.1/3.2) never models this floor; it only matters for
  /// the measured metric.
  double total_power(const std::vector<double>& core_busy) const;

  /// Constant platform floor in watts.
  double base_watts() const { return base_watts_; }

 private:
  const Machine* machine_;
  std::vector<PowerParams> params_;
  double base_watts_;
};

}  // namespace hars
