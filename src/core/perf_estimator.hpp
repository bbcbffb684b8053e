// Performance estimator (thesis §3.1.1).
//
// Assumes application performance is proportional to allocated cores and
// frequency, with per-core speeds S_B = (f_B / f_0) * S_B,f0 and
// S_L = (f_L / f_0) * S_L,f0 and the assumed ratio r_0 = S_B,f0 / S_L,f0.
// The paper (and this reproduction) uses r_0 = 3/2 from the instruction
// width of the Cortex-A15 (3) vs. A7 (2) — deliberately *wrong* for
// blackscholes, whose measured ratio is 1.0 (§5.1.2).
//
// Workload inference: the estimator never sees W directly. It assumes the
// work per heartbeat observed at the current state repeats (simple
// prediction model, §3.1.4), so a candidate's rate is
//   rate_cand = rate_now * t_f(current) / t_f(candidate).
#pragma once

#include "core/system_state.hpp"
#include "core/thread_assignment.hpp"
#include "hmp/machine.hpp"

namespace hars {

/// The paper's assumed big:little per-core speed ratio, r0 = 3/2. The
/// managers' configs default to it; experiments overwrite it with
/// PlatformSpec::assumed_ratio(), which derives the same 3/2 on the Exynos.
inline constexpr double kAssumedR0 = 1.5;

/// The baseline frequency f_0 at which r0 is stated. CONS-I's perfScore
/// counts cores at this frequency too.
inline constexpr double kF0Ghz = 1.0;

class PerfEstimator {
 public:
  /// `r0` is the assumed big:little per-core speed ratio at kF0Ghz.
  PerfEstimator(const Machine& machine, double r0);

  /// Per-core speeds (arbitrary units; only ratios matter).
  double big_speed(const SystemState& s) const;
  double little_speed(const SystemState& s) const;

  /// Effective ratio r = S_B / S_L at the state's frequencies.
  double ratio(const SystemState& s) const;

  /// Best thread assignment for `t` threads under state `s` (Table 3.1).
  ThreadAssignment assignment(const SystemState& s, int t) const;

  /// t_f for one unit of work W = t (so per-thread share = 1) under `s`.
  /// +inf for states that cannot run the threads.
  double unit_time(const SystemState& s, int t) const;

  /// Predicted heartbeat rate at `candidate` given the observed rate at
  /// `current`.
  double estimate_rate(const SystemState& candidate, const SystemState& current,
                       double current_rate, int t) const;

  /// Estimated utilizations of the used cores (inputs to Eq. 3.1/3.2).
  ClusterUtilization utilization(const SystemState& s, int t) const;

  double r0() const { return r0_; }
  void set_r0(double r0) { r0_ = r0; }

 private:
  const Machine* machine_;
  double r0_;
};

}  // namespace hars
