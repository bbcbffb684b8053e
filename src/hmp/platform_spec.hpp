// Declarative platform description: the one value type that carries
// everything the stack needs to instantiate a machine — topology
// (clusters, DVFS ladders, ipc), the per-cluster power-model parameters,
// the platform base draw, and calibration defaults (the managers' assumed
// fastest:slowest speed ratio r0).
//
// A PlatformSpec is plain data: build one with PlatformBuilder, probe one
// from sysfs (PlatformSpec::from_sysfs), or fetch a preset from the
// PlatformRegistry by name ("exynos5422", "sd855", ...). validate() is
// the single gate every consumer relies on; make_machine() materializes
// the mutable Machine, and PowerModel (which SimEngine and the live
// backend build from the spec) reads the carried per-cluster parameters
// and base draw.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "hmp/machine.hpp"
#include "hmp/power_model.hpp"

namespace hars {

class SysfsIo;  // backend/sysfs.hpp

/// Invalid platform descriptions (builder, sysfs probe, registry) are
/// reported through this exception.
class PlatformConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One cluster of a platform: its topology plus its power parameters.
struct PlatformCluster {
  ClusterSpec topology;
  PowerParams power;
};

struct PlatformSpec {
  /// The Exynos board's constant floor (board/memory), and every spec's
  /// default.
  static constexpr double kDefaultBaseWatts = 0.7;

  std::string name;
  std::vector<PlatformCluster> clusters;
  double base_watts = kDefaultBaseWatts;  ///< Constant platform floor.
  /// Calibration default for the runtime managers' assumed
  /// fastest:slowest per-core speed ratio. 0 = derive from the ipc ratio
  /// of the fastest and slowest clusters (the paper's instruction-width
  /// argument generalized).
  double default_r0 = 0.0;

  /// Throws PlatformConfigError on an inconsistent description: no name,
  /// no clusters, non-positive core counts or ipc, empty or non-ascending
  /// DVFS ladders, non-positive frequencies, negative power parameters.
  void validate() const;

  /// The immutable topology (validate()d first).
  MachineSpec machine_spec() const;

  /// Materializes the mutable machine (validate()d first).
  Machine make_machine() const;

  /// The assumed r0: default_r0 when set, else the ipc ratio of the
  /// fastest and slowest clusters (3/2 = the paper's value on the Exynos).
  /// Like the paper's instruction-width argument this is an *architectural
  /// assumption*, deliberately allowed to diverge from any application's
  /// measured ratio (§5.1.2's blackscholes misprediction); experiments can
  /// override it per run (.assumed_ratio) or learn it online
  /// (.learn_ratio).
  double assumed_ratio() const;

  /// A stable content signature for memoization keys: two platforms with
  /// equal signatures behave identically.
  std::string signature() const;

  /// Wraps an existing Machine, attaching the per-core-type default power
  /// parameters (PowerParams::for_type) and kDefaultBaseWatts.
  static PlatformSpec from_machine(const Machine& machine);

  /// Probes a (real or fixture) sysfs tree and self-describes the
  /// topology: clusters from cpufreq `related_cpus` groups, DVFS ladders
  /// from `scaling_available_frequencies` (kHz, sorted ascending; falls
  /// back to the cpuinfo min/max pair), ipc from `cpu_capacity` / 512,
  /// big/little from peak capability. Sysfs carries no power model, so
  /// clusters get the per-core-type default parameters — override with an
  /// explicit platform when real coefficients matter. Defined in
  /// src/backend/sysfs_probe.cpp; throws PlatformConfigError when the
  /// tree has no usable cpus.
  static PlatformSpec from_sysfs(const SysfsIo& sysfs,
                                 const std::string& name = "sysfs-probe");
};

/// Fluent construction mirroring ExperimentBuilder:
///
///   PlatformSpec spec = PlatformBuilder()
///                           .name("laptop-2P6E")
///                           .cluster(CoreType::kLittle, 6, 2.0)
///                           .freq_range_ghz(0.8, 2.01, 0.2)
///                           .cluster(CoreType::kBig, 2, 4.0)
///                           .freq_range_ghz(1.0, 3.61, 0.2)
///                           .build();  // validates
class PlatformBuilder {
 public:
  PlatformBuilder& name(std::string platform_name);

  /// Starts a new cluster; the ladder/power setters below apply to it.
  /// Power parameters default to PowerParams::for_type(type).
  PlatformBuilder& cluster(CoreType type, int core_count, double ipc);

  /// Explicit DVFS ladder (ascending GHz) for the current cluster.
  PlatformBuilder& freqs_ghz(std::vector<double> freqs);

  /// DVFS ladder lo, lo+step, ... while < below (the presets' idiom; the
  /// accumulation form keeps ladders bit-identical to handwritten loops).
  PlatformBuilder& freq_range_ghz(double lo_ghz, double below_ghz,
                                  double step_ghz);

  /// Power parameters of the current cluster.
  PlatformBuilder& power(PowerParams params);

  PlatformBuilder& base_watts(double watts);
  PlatformBuilder& assumed_ratio(double r0);

  /// Validates and returns the finished spec.
  PlatformSpec build() const;

 private:
  PlatformSpec spec_;
};

}  // namespace hars
