#include "oracle/reference_gts.hpp"

#include <cstdint>

namespace hars {

void ReferenceGtsScheduler::assign(const Machine& machine,
                                   std::vector<SimThread>& threads) {
  const CpuMask online = machine.online_mask();
  // GTS is a two-tier policy: the "little" down-migration tier is the
  // slowest cluster, the "big" up-migration tier is everything faster.
  // On two-cluster big.LITTLE parts this is exactly the big cluster; on
  // N-cluster machines high-load threads may use every non-slowest
  // cluster instead of stacking on the single fastest one.
  const CpuMask little = machine.slowest_mask();
  const CpuMask big = machine.all_mask() & ~little;

  // Number of runnable threads currently packed on each core; rebuilt each
  // tick as we (re)place threads.
  std::vector<int> core_load(static_cast<std::size_t>(machine.num_cores()), 0);

  auto pick_least_loaded = [&](CpuMask candidates, CoreId prefer) -> CoreId {
    CoreId best = -1;
    int best_load = INT32_MAX;
    for (CoreId c = candidates.first(); c >= 0; c = candidates.next(c)) {
      const int load = core_load[static_cast<std::size_t>(c)];
      // Strictly-better wins; the preferred (current) core wins ties.
      if (load < best_load || (load == best_load && c == prefer)) {
        best = c;
        best_load = load;
      }
    }
    return best;
  };

  for (SimThread& t : threads) {
    if (!t.runnable) {
      // Sleeping threads keep their last core for stickiness but occupy
      // no capacity.
      continue;
    }

    CpuMask allowed = t.affinity & online;
    if (allowed.empty()) allowed = online;  // Linux falls back to all online.

    // GTS tier selection by load thresholds, constrained by affinity.
    CpuMask preferred = allowed;
    const double load = t.load.value();
    if (load >= kGtsUpThreshold) {
      const CpuMask big_allowed = allowed & big;
      if (big_allowed.any()) preferred = big_allowed;
    } else if (load <= kGtsDownThreshold) {
      const CpuMask little_allowed = allowed & little;
      if (little_allowed.any()) preferred = little_allowed;
    } else if (t.core >= 0 && allowed.test(t.core)) {
      // Between thresholds: stay in the current cluster if possible.
      const CpuMask same_cluster = allowed & machine.cluster_mask(machine.cluster_of(t.core));
      if (same_cluster.any()) preferred = same_cluster;
    }

    const CoreId target = pick_least_loaded(preferred, t.core);
    if (target < 0) continue;  // No online core at all; cannot happen with cpu0 pinned online.
    if (t.core != target) {
      if (t.core >= 0) ++t.migrations;
      t.core = target;
    }
    ++core_load[static_cast<std::size_t>(target)];
  }

  if (!config_.idle_pull) return;

  // EAS-style idle balancing: every idle online core pulls one runnable
  // thread from the most crowded core that the thread's affinity permits.
  for (CoreId idle = online.first(); idle >= 0; idle = online.next(idle)) {
    if (core_load[static_cast<std::size_t>(idle)] != 0) continue;
    SimThread* victim = nullptr;
    int victim_load = 1;  // Only pull from cores with >= 2 runnable threads.
    for (SimThread& t : threads) {
      if (!t.runnable || t.core < 0 || t.core == idle) continue;
      const int load = core_load[static_cast<std::size_t>(t.core)];
      if (load <= victim_load) continue;
      CpuMask allowed = t.affinity & online;
      if (allowed.empty()) allowed = online;
      if (!allowed.test(idle)) continue;
      victim = &t;
      victim_load = load;
    }
    if (victim == nullptr) continue;
    --core_load[static_cast<std::size_t>(victim->core)];
    victim->core = idle;
    ++victim->migrations;
    ++core_load[static_cast<std::size_t>(idle)];
  }
}

}  // namespace hars
