#include "hmp/power_model.hpp"

#include <cassert>
#include <cmath>

#include "hmp/platform_spec.hpp"

namespace hars {

PowerParams PowerParams::cortex_a15() {
  PowerParams p;
  p.c_dyn = 0.30;   // ~1.2 W/core at 1.6 GHz -> ~4.8 W dynamic for 4 cores.
  p.c_leak = 0.15;  // ~0.24 W at 1.6 GHz.
  p.c_mem = 0.06;
  p.k_therm = 0.02;
  return p;
}

PowerParams PowerParams::cortex_a7() {
  PowerParams p;
  p.c_dyn = 0.10;   // ~0.22 W/core at 1.3 GHz.
  p.c_leak = 0.05;
  p.c_mem = 0.03;
  p.k_therm = 0.01;
  return p;
}

PowerParams PowerParams::for_type(CoreType type) {
  return type == CoreType::kBig ? cortex_a15() : cortex_a7();
}

PowerModel::PowerModel(const Machine& machine, const PlatformSpec& platform)
    : machine_(&machine), base_watts_(platform.base_watts) {
  assert(static_cast<int>(platform.clusters.size()) == machine.num_clusters());
  params_.reserve(platform.clusters.size());
  for (const PlatformCluster& cluster : platform.clusters) {
    params_.push_back(cluster.power);
  }
}

double PowerModel::cluster_power(ClusterId cluster, double busy_sum) const {
  // One formula, two entry points: delegating keeps this and the
  // snapshot-fed fast path (cluster_power_given) textually identical,
  // which the tick paths' bit-identity guarantee depends on.
  const double f = machine_->freq_ghz(cluster);
  const bool any_online =
      (machine_->online_mask() & machine_->cluster_mask(cluster)).any();
  return cluster_power_given(cluster, f, any_online, busy_sum);
}

double PowerModel::total_power(const std::vector<double>& core_busy) const {
  assert(static_cast<int>(core_busy.size()) == machine_->num_cores());
  double total = base_watts_;
  for (int c = 0; c < machine_->num_clusters(); ++c) {
    double busy_sum = 0.0;
    const CpuMask mask = machine_->cluster_mask(c);
    for (CoreId core = mask.first(); core >= 0; core = mask.next(core)) {
      busy_sum += core_busy[static_cast<std::size_t>(core)];
    }
    total += cluster_power(c, busy_sum);
  }
  return total;
}

}  // namespace hars
