// Simulated heterogeneous multi-processing machine.
//
// Substitutes for the paper's ODROID-XU3 (Samsung Exynos 5422): two clusters
// of four cores each — in-order Cortex-A7 "LITTLE" (cpu0-3) and out-of-order
// Cortex-A15 "big" (cpu4-7) — with per-cluster DVFS (the paper's assumption:
// frequency is set per cluster, not per core). Core hotplug is modelled as
// an online mask, which is how the naive multi-application model (CONS-I)
// controls the global core count.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "hmp/cpu_mask.hpp"
#include "util/common.hpp"

namespace hars {

enum class CoreType { kLittle = 0, kBig = 1 };

const char* core_type_name(CoreType type);

/// Static description of one cluster.
struct ClusterSpec {
  CoreType type = CoreType::kLittle;
  int core_count = 4;
  std::vector<double> freqs_ghz;  ///< Available DVFS levels, ascending.
  double ipc = 2.0;  ///< Architectural width; work-units/s = ipc * f_ghz.
};

struct MachineSpec {
  std::string name;
  std::vector<ClusterSpec> clusters;
};

/// The machine: topology + mutable DVFS and hotplug state.
///
/// Core ids are dense: cluster 0 occupies [0, n0), cluster 1 [n0, n0+n1), ...
/// For the Exynos preset that matches Linux's numbering on the XU3
/// (little = cpu0-3, big = cpu4-7).
class Machine {
 public:
  explicit Machine(MachineSpec spec);

  /// ODROID-XU3 preset: 4x A7 @ 0.8-1.3 GHz (ipc 2) + 4x A15 @ 0.8-1.6 GHz
  /// (ipc 3); instruction-width ratio gives the paper's r0 = 3/2.
  static Machine exynos5422();

  const MachineSpec& spec() const { return spec_; }
  int num_clusters() const { return static_cast<int>(spec_.clusters.size()); }
  int num_cores() const { return num_cores_; }

  ClusterId cluster_of(CoreId core) const;
  CoreType core_type(CoreId core) const;
  CpuMask cluster_mask(ClusterId cluster) const;
  int cluster_core_count(ClusterId cluster) const;

  // --- Capability API (N-cluster machines) ---
  /// Peak per-core speed of a cluster: ipc * top frequency. The ordering
  /// key for the perf-ranked queries below.
  double cluster_peak_speed(ClusterId cluster) const;

  /// Cluster ids ordered fastest-first by peak per-core speed; ties break
  /// toward the lower cluster id, so the order is deterministic on
  /// symmetric machines.
  const std::vector<ClusterId>& clusters_by_perf() const {
    return perf_order_;
  }
  ClusterId fastest_cluster() const { return perf_order_.front(); }
  ClusterId slowest_cluster() const { return perf_order_.back(); }
  CpuMask fastest_mask() const { return cluster_mask(fastest_cluster()); }
  CpuMask slowest_mask() const { return cluster_mask(slowest_cluster()); }

  // --- DVFS (per-cluster, as on the XU3) ---
  int num_freq_levels(ClusterId cluster) const;
  double freq_ghz_at_level(ClusterId cluster, int level) const;
  int freq_level(ClusterId cluster) const;
  double freq_ghz(ClusterId cluster) const;
  double core_freq_ghz(CoreId core) const;

  /// Sets the cluster to the given DVFS level, clamped to the valid range.
  void set_freq_level(ClusterId cluster, int level);

  /// Monotonic counter bumped whenever any cluster's DVFS level actually
  /// changes — the incremental-update hook for per-tick frequency
  /// snapshots (SimEngine::TickScratch): consumers re-read frequencies
  /// only when the epoch moved instead of every tick.
  std::uint64_t dvfs_epoch() const { return dvfs_epoch_; }

  /// Sets the cluster to the closest available frequency. A target exactly
  /// midway between two levels snaps to the *lower* level — the tie-break
  /// is deterministic and biased toward less power, like cpufreq's
  /// closest-below resolution.
  void set_freq_ghz(ClusterId cluster, double ghz);

  /// Highest available level index.
  int max_freq_level(ClusterId cluster) const;

  // --- Hotplug-style online mask ---
  CpuMask online_mask() const { return online_; }
  bool is_online(CoreId core) const { return online_.test(core); }
  void set_online_mask(CpuMask mask);

  /// All cores of the machine.
  CpuMask all_mask() const { return CpuMask::range(0, num_cores_); }

  /// Baseline per-core speed in work-units/second for a neutral workload
  /// (ipc * frequency). Applications scale this by their own affinity for
  /// the core type.
  double core_speed(CoreId core) const;

 private:
  MachineSpec spec_;
  int num_cores_ = 0;
  std::vector<ClusterId> core_cluster_;  ///< Per core.
  std::vector<int> cluster_first_core_;
  std::vector<int> freq_level_;  ///< Per cluster.
  std::uint64_t dvfs_epoch_ = 1;  ///< Bumped on every level change.
  CpuMask online_;
  std::vector<ClusterId> perf_order_;  ///< Clusters, fastest first.
};

}  // namespace hars
