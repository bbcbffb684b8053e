#include "core/perf_estimator.hpp"

#include <cmath>
#include <limits>

#include "util/hot_path.hpp"

namespace hars {

PerfEstimator::PerfEstimator(const Machine& machine, double r0)
    : machine_(&machine), r0_(r0) {}

HARS_HOT double PerfEstimator::big_speed(const SystemState& s) const {
  const double f = machine_->freq_ghz_at_level(machine_->fastest_cluster(), s.big_freq);
  return r0_ * f / kF0Ghz;  // S_B,f0 = r0, S_L,f0 = 1.
}

HARS_HOT double PerfEstimator::little_speed(const SystemState& s) const {
  const double f =
      machine_->freq_ghz_at_level(machine_->slowest_cluster(), s.little_freq);
  return 1.0 * f / kF0Ghz;
}

double PerfEstimator::ratio(const SystemState& s) const {
  return big_speed(s) / little_speed(s);
}

HARS_HOT ThreadAssignment PerfEstimator::assignment(const SystemState& s,
                                                    int t) const {
  if (s.big_cores + s.little_cores < 1 || t <= 0) return {};
  return assign_threads(t, s.big_cores, s.little_cores, ratio(s));
}

HARS_HOT double PerfEstimator::unit_time(const SystemState& s, int t) const {
  if (t <= 0) return 0.0;
  if (s.big_cores + s.little_cores < 1) {
    return std::numeric_limits<double>::infinity();
  }
  const ThreadAssignment a = assignment(s, t);
  return unit_completion_time(a, t, /*total_work=*/t, s.big_cores,
                              s.little_cores, big_speed(s), little_speed(s));
}

HARS_HOT double PerfEstimator::estimate_rate(const SystemState& candidate,
                                             const SystemState& current,
                                             double current_rate,
                                             int t) const {
  const double t_cur = unit_time(current, t);
  const double t_cand = unit_time(candidate, t);
  if (!std::isfinite(t_cand) || t_cand <= 0.0) return 0.0;
  if (!std::isfinite(t_cur) || t_cur <= 0.0) return 0.0;
  return current_rate * t_cur / t_cand;
}

ClusterUtilization PerfEstimator::utilization(const SystemState& s, int t) const {
  const ThreadAssignment a = assignment(s, t);
  return estimate_utilization(a, t, s.big_cores, s.little_cores, big_speed(s),
                              little_speed(s));
}

}  // namespace hars
