// Global Task Scheduling (GTS) model — the Linux HMP scheduler the paper's
// baseline runs under (kernel 3.10 + big.LITTLE MP patches).
//
// Behavioural contract reproduced from the paper (§2.1, §4.1.1):
//  * per-thread load averages with an *up* migration threshold (little->big
//    when load exceeds it) and a *down* threshold (big->little when load
//    falls below it);
//  * consequence: concurrently running CPU-intensive threads all collect on
//    the big cluster and time-share it while the little cluster idles —
//    the inefficiency HARS exploits;
//  * affinity masks (sched_setaffinity) are honoured, which is exactly how
//    HARS pins threads to its chosen core allocation;
//  * within the permitted cores, threads are balanced to the least-loaded
//    core, preferring the current core on ties (stickiness).
#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace hars {

/// GTS's migration thresholds on a thread's load_avg: little -> big at
/// or above kGtsUpThreshold, big -> little at or below kGtsDownThreshold.
inline constexpr double kGtsUpThreshold = 0.80;
inline constexpr double kGtsDownThreshold = 0.30;

struct GtsConfig {
  /// Idle-pull spill-over: when true, an idle online core pulls a
  /// runnable thread from a core packing two or more, across clusters.
  /// Models the fine-grain inter-cluster balancing of later schedulers
  /// (EAS-style; thesis §3.1.4 option 3 / related work [9]) — stock GTS
  /// does NOT do this (§4.1.1), which is the paper's baseline critique.
  bool idle_pull = false;
};

class GtsScheduler final : public Scheduler {
 public:
  explicit GtsScheduler(GtsConfig config = {});

  void assign(const Machine& machine, std::vector<SimThread>& threads) override;

  /// The core loads double as the engine's runnable-thread counts.
  const std::vector<int>* runnable_per_core() const override {
    return &core_load_;
  }

  /// The stable-placement skip's predicate (see below); false in
  /// idle-pull mode, which never skips.
  bool placement_fixed_point(const Machine& machine,
                             const std::vector<SimThread>& threads) const override;

  /// Each thread's interval of loads that keeps the preferred cores the
  /// last full run chose for it, as a closed interval of doubles: the
  /// union of the recorded tier and the adjacent tiers whose preferred
  /// cores are the same. A sleeping thread is unbounded. False in
  /// idle-pull mode, whose placement is never a fixed point.
  bool load_bounds(const std::vector<SimThread>& threads, double* lo,
                   double* hi) const override;

  /// Counts each elided call as an assign() call that took the skip.
  void note_elided_assigns(std::int64_t ticks) override;

  const char* name() const override { return "gts"; }

  /// Load tier: 0 = up, 1 = down, 2 = between thresholds.
  std::uint8_t tier_of(double load) const {
    if (load >= kGtsUpThreshold) return 0;
    if (load <= kGtsDownThreshold) return 1;
    return 2;
  }

 private:
  /// Rebuilds the immutable-topology caches when first seeing `machine`.
  void prime_topology(const Machine& machine);
  /// GTS's tier selection: the cores a runnable thread of load tier
  /// `tier`, online affinity set `allowed` and current core `core`
  /// prefers; assign() balances it over these.
  CpuMask preferred(std::uint8_t tier, CpuMask allowed, CoreId core) const;
  /// The ThreadSig::tiers of a runnable thread recorded in `tier`, whose
  /// preferred cores there are `own_cores`.
  std::uint8_t equal_preference_tiers(std::uint8_t tier, CpuMask own_cores,
                                      CpuMask allowed, CoreId core) const;

  GtsConfig config_;
  std::vector<int> core_load_;  ///< Per-call scratch, pre-sized once.

  // Stable-placement skip (idle_pull off): when the last
  // full run migrated nothing (the placement was already a fixed point of
  // the deterministic policy) and every per-thread decision input —
  // runnable, preferred cores, affinity — plus the online mask is
  // unchanged, re-running the policy provably reproduces the current
  // placement, so assign() returns early with core_load_ still valid.
  // A load keeps the preferred cores while its tier is one of `tiers`.
  struct ThreadSig {
    std::uint64_t affinity = 0;
    ThreadId id = -1;  ///< Thread identity: a kill+spawn that restores the
                       ///< same table size must not match stale entries.
    /// Bit k set: tier k gives the recorded preferred cores, and the set
    /// is one interval of loads (tiers 1, 2, 0 from low to high). All
    /// three for a sleeping thread, which assign() does not place.
    std::uint8_t tiers = 0;
    bool runnable = false;
  };
  static constexpr std::uint8_t kAllTiers = 0b111;
  std::vector<ThreadSig> prev_sig_;
  std::uint64_t prev_online_bits_ = 0;
  bool sig_valid_ = false;
  bool last_stable_ = false;  ///< Last full run placed without migrating.

  // Topology caches (immutable for a given machine; rebuilt whenever a
  // different Machine object is handed in — engines own their scheduler,
  // so in practice this primes once): the per-cluster masks and the
  // core -> cluster-mask map sit on the per-thread path.
  const Machine* cached_machine_ = nullptr;
  CpuMask little_cache_;
  CpuMask big_cache_;
  std::vector<CpuMask> core_cluster_mask_;  ///< Per core.
};

}  // namespace hars
