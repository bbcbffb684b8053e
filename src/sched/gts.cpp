#include "sched/gts.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

GtsScheduler::GtsScheduler(GtsConfig config) : config_(config) {}

void GtsScheduler::prime_topology(const Machine& machine) {
  allocg::AllowScope allow("GTS topology cache (machine swap only)");
  cached_machine_ = &machine;
  little_cache_ = machine.slowest_mask();
  big_cache_ = machine.all_mask() & ~little_cache_;
  core_cluster_mask_.resize(static_cast<std::size_t>(machine.num_cores()));
  for (CoreId c = 0; c < machine.num_cores(); ++c) {
    core_cluster_mask_[static_cast<std::size_t>(c)] =
        machine.cluster_mask(machine.cluster_of(c));
  }
  // A machine swap also invalidates any recorded placement signature.
  sig_valid_ = false;
}

HARS_HOT CpuMask GtsScheduler::preferred(std::uint8_t tier, CpuMask allowed,
                                         CoreId core) const {
  if (tier == 0) {
    const CpuMask big_allowed = allowed & big_cache_;
    return big_allowed.any() ? big_allowed : allowed;
  }
  if (tier == 1) {
    const CpuMask little_allowed = allowed & little_cache_;
    return little_allowed.any() ? little_allowed : allowed;
  }
  if (core >= 0 && ((allowed.bits() >> core) & 1ULL) != 0) {
    // Between thresholds: stay in the current cluster if possible.
    const CpuMask same_cluster =
        allowed & core_cluster_mask_[static_cast<std::size_t>(core)];
    if (same_cluster.any()) return same_cluster;
  }
  return allowed;
}

HARS_HOT std::uint8_t GtsScheduler::equal_preference_tiers(
    std::uint8_t tier, CpuMask own_cores, CpuMask allowed, CoreId core) const {
  // On the load line the tiers run 1 (low), 2, 0 (high); the set grows
  // from the recorded tier through neighbours with the same cores.
  const std::uint64_t own = own_cores.bits();
  const auto same = [&](std::uint8_t other) {
    return preferred(other, allowed, core).bits() == own;
  };
  std::uint8_t tiers = static_cast<std::uint8_t>(1u << tier);
  if (tier == 2) {
    if (same(1)) tiers |= 1u << 1;
    if (same(0)) tiers |= 1u << 0;
  } else if (same(2)) {
    tiers |= 1u << 2;
    const std::uint8_t far = tier == 0 ? 1 : 0;
    if (same(far)) tiers |= static_cast<std::uint8_t>(1u << far);
  }
  return tiers;
}

// Stable-placement skip: the current placement is a fixed point and no
// decision input changed, so a full run would reproduce it exactly.
HARS_HOT bool GtsScheduler::placement_fixed_point(
    const Machine& machine, const std::vector<SimThread>& threads) const {
  if (config_.idle_pull || !sig_valid_ ||
      !last_stable_ || cached_machine_ != &machine ||
      machine.online_mask().bits() != prev_online_bits_ ||
      threads.size() != prev_sig_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const SimThread& t = threads[i];
    const ThreadSig& sig = prev_sig_[i];
    // An unplaced runnable thread (fresh spawn reusing this index)
    // always needs a full run — it is not part of any fixed point —
    // and so does any thread-identity change (kill + spawn can restore
    // the same table size with every index reshuffled).
    if (t.id != sig.id || t.runnable != sig.runnable ||
        t.affinity.bits() != sig.affinity ||
        ((sig.tiers >> tier_of(t.load.value())) & 1u) == 0 ||
        (t.runnable && t.core < 0)) {
      return false;
    }
  }
  return true;
}

bool GtsScheduler::load_bounds(const std::vector<SimThread>& threads,
                               double* lo, double* hi) const {
  if (config_.idle_pull || !sig_valid_ || threads.size() != prev_sig_.size()) {
    return false;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double up = kGtsUpThreshold;
  const double down = kGtsDownThreshold;
  // tier_of tests `up` first, so tiers 1 and 2 also need load < up; tier
  // 2 is empty unless down < up.
  const double below_up = std::nextafter(up, -kInf);
  const double above_down = std::nextafter(down, kInf);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const std::uint8_t tiers = prev_sig_[i].tiers;
    const bool low = (tiers & (1u << 1)) != 0;
    const bool mid = (tiers & (1u << 2)) != 0;
    const bool high = (tiers & (1u << 0)) != 0;
    lo[i] = low ? -kInf : mid ? std::min(above_down, up) : up;
    hi[i] = high ? kInf : mid ? below_up : std::min(down, below_up);
  }
  return true;
}

void GtsScheduler::note_elided_assigns(std::int64_t ticks) {
  const auto n = static_cast<std::uint64_t>(ticks);
  obs::counter_add(obs::catalog().gts_assign_calls, n);
  obs::counter_add(obs::catalog().gts_assign_skips, n);
}

HARS_HOT void GtsScheduler::assign(const Machine& machine,
                                   std::vector<SimThread>& threads) {
  if (cached_machine_ != &machine) prime_topology(machine);
  obs::counter_add(obs::catalog().gts_assign_calls);
  const CpuMask online = machine.online_mask();

  if (placement_fixed_point(machine, threads)) {
    // core_load_ from the last full run still holds.
    obs::counter_add(obs::catalog().gts_assign_skips);
    return;
  }

  // Number of runnable threads currently packed on each core; reused
  // across calls (pre-sized once) and rebuilt as we (re)place threads.
  // Capacity is retained, so these only allocate when the machine or the
  // thread table grows, and the AllowScope opens only then: opening one
  // looks up its reason's counter slot, a measurable cost when a quiet
  // span's heads call assign() thousands of times per calibration.
  const auto num_cores = static_cast<std::size_t>(machine.num_cores());
  if (core_load_.size() != num_cores || prev_sig_.size() != threads.size()) {
    allocg::AllowScope allow("GTS scratch growth");
    core_load_.resize(num_cores);  // hars-lint: allow(no-alloc): guarded growth
    prev_sig_.resize(threads.size());  // hars-lint: allow(no-alloc): guarded growth
  }
  std::fill(core_load_.begin(), core_load_.end(), 0);
  prev_online_bits_ = online.bits();
  sig_valid_ = true;
  bool moved_any = false;

  auto pick_least_loaded = [&](CpuMask candidates, CoreId prefer) -> CoreId {
    // One candidate: it wins regardless of load (frequent under manager
    // pinning, where per-thread masks shrink to a core or two).
    const std::uint64_t bits = candidates.bits();
    if ((bits & (bits - 1)) == 0) {
      return bits == 0 ? -1 : std::countr_zero(bits);
    }
    // Clear-lowest-bit iteration visits the same cores in the same
    // ascending order as first()/next(), a few ops cheaper per core.
    CoreId best = -1;
    int best_load = INT32_MAX;
    for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1) {
      const CoreId c = std::countr_zero(rest);
      const int load = core_load_[static_cast<std::size_t>(c)];
      // Strictly-better wins; the preferred (current) core wins ties.
      if (load < best_load || (load == best_load && c == prefer)) {
        best = c;
        best_load = load;
      }
    }
    return best;
  };

  for (std::size_t i = 0; i < threads.size(); ++i) {
    SimThread& t = threads[i];
    ThreadSig& sig = prev_sig_[i];
    sig.affinity = t.affinity.bits();
    sig.id = t.id;
    sig.runnable = t.runnable;
    if (!t.runnable) {
      // Sleeping threads keep their last core for stickiness but occupy
      // no capacity; their load decides nothing.
      sig.tiers = kAllTiers;
      continue;
    }

    CpuMask allowed = t.affinity & online;
    if (allowed.empty()) allowed = online;  // Linux falls back to all online.

    // GTS tier selection by load thresholds, constrained by affinity.
    const std::uint8_t tier = tier_of(t.load.value());
    const CpuMask cores = preferred(tier, allowed, t.core);
    sig.tiers = equal_preference_tiers(tier, cores, allowed, t.core);
    const CoreId target = pick_least_loaded(cores, t.core);
    if (target < 0) continue;  // No online core at all; cannot happen with cpu0 pinned online.
    if (t.core != target) {
      if (t.core >= 0) {
        ++t.migrations;
        obs::counter_add(obs::catalog().migrations);
      }
      t.core = target;
      moved_any = true;
    }
    ++core_load_[static_cast<std::size_t>(target)];
  }
  last_stable_ = !moved_any;

  if (!config_.idle_pull) return;

  // A pull is only possible when some online core is idle AND some core
  // stacks two or more runnable threads; checking that first skips the
  // per-idle-core thread scans on the (common) balanced ticks without
  // changing any placement.
  bool any_idle = false;
  bool any_stacked = false;
  for (CoreId c = online.first(); c >= 0; c = online.next(c)) {
    const int load = core_load_[static_cast<std::size_t>(c)];
    any_idle |= load == 0;
    any_stacked |= load >= 2;
  }
  if (!any_idle || !any_stacked) return;

  // EAS-style idle balancing: every idle online core pulls one runnable
  // thread from the most crowded core that the thread's affinity permits.
  for (CoreId idle = online.first(); idle >= 0; idle = online.next(idle)) {
    if (core_load_[static_cast<std::size_t>(idle)] != 0) continue;
    SimThread* victim = nullptr;
    int victim_load = 1;  // Only pull from cores with >= 2 runnable threads.
    for (SimThread& t : threads) {
      if (!t.runnable || t.core < 0 || t.core == idle) continue;
      const int load = core_load_[static_cast<std::size_t>(t.core)];
      if (load <= victim_load) continue;
      CpuMask allowed = t.affinity & online;
      if (allowed.empty()) allowed = online;
      if (!allowed.test(idle)) continue;
      victim = &t;
      victim_load = load;
    }
    if (victim == nullptr) continue;
    --core_load_[static_cast<std::size_t>(victim->core)];
    victim->core = idle;
    ++victim->migrations;
    obs::counter_add(obs::catalog().migrations);
    ++core_load_[static_cast<std::size_t>(idle)];
    last_stable_ = false;
  }
}

}  // namespace hars
