#include "hmp/platform_spec.hpp"

#include <algorithm>

#include "hmp/cpu_mask.hpp"

namespace hars {

void PlatformSpec::validate() const {
  if (name.empty()) {
    throw PlatformConfigError("platform needs a non-empty name");
  }
  if (clusters.size() < 2) {
    // Every consumer splits the machine into a fast and a slow pool
    // (fastest_cluster() != slowest_cluster()); a single-cluster platform
    // would make the pools alias the same cores.
    throw PlatformConfigError("platform \"" + name +
                              "\" needs at least two clusters (a fast and "
                              "a slow pool)");
  }
  int total_cores = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const std::string where =
        "platform \"" + name + "\" cluster " + std::to_string(c);
    const ClusterSpec& topo = clusters[c].topology;
    if (topo.core_count <= 0) {
      throw PlatformConfigError(where + ": core_count must be positive");
    }
    if (!(topo.ipc > 0.0)) {
      throw PlatformConfigError(where + ": ipc must be positive");
    }
    if (topo.freqs_ghz.empty()) {
      throw PlatformConfigError(where + ": DVFS ladder is empty");
    }
    if (!(topo.freqs_ghz.front() > 0.0)) {
      throw PlatformConfigError(where + ": frequencies must be positive");
    }
    for (std::size_t i = 1; i < topo.freqs_ghz.size(); ++i) {
      if (!(topo.freqs_ghz[i] > topo.freqs_ghz[i - 1])) {
        throw PlatformConfigError(where +
                                  ": DVFS ladder must be strictly ascending");
      }
    }
    const PowerParams& p = clusters[c].power;
    if (p.c_dyn < 0.0 || p.c_leak < 0.0 || p.c_mem < 0.0 || p.k_therm < 0.0) {
      throw PlatformConfigError(where +
                                ": power parameters must be non-negative");
    }
    total_cores += topo.core_count;
  }
  // The app execution model keys per-core speed on CoreType (SpeedModel
  // carries one ipc per type), so a "little" cluster that out-peaks a
  // "big" cluster would invert the perf-ranked pool assignment relative
  // to how applications actually execute. Reject the inversion here.
  double min_big_peak = 0.0;
  double max_little_peak = 0.0;
  bool any_big = false;
  bool any_little = false;
  for (const PlatformCluster& cluster : clusters) {
    const ClusterSpec& topo = cluster.topology;
    const double peak = topo.ipc * topo.freqs_ghz.back();
    if (topo.type == CoreType::kBig) {
      min_big_peak = any_big ? std::min(min_big_peak, peak) : peak;
      any_big = true;
    } else {
      max_little_peak = any_little ? std::max(max_little_peak, peak) : peak;
      any_little = true;
    }
  }
  // >= — an exact tie is rejected too: the perf sort's index tie-break
  // could then rank a little cluster as the fastest pool.
  if (any_big && any_little && max_little_peak >= min_big_peak) {
    throw PlatformConfigError(
        "platform \"" + name +
        "\": a little cluster matches or out-peaks a big cluster "
        "(ipc * top freq); the execution model keys speed on the core "
        "type, so big clusters must be strictly faster than little ones");
  }
  if (total_cores > CpuMask::kMaxCpus) {
    throw PlatformConfigError("platform \"" + name + "\" has " +
                              std::to_string(total_cores) + " cores; max " +
                              std::to_string(CpuMask::kMaxCpus));
  }
  if (base_watts < 0.0) {
    throw PlatformConfigError("platform \"" + name +
                              "\": base_watts must be non-negative");
  }
  if (default_r0 < 0.0) {
    throw PlatformConfigError("platform \"" + name +
                              "\": default_r0 must be non-negative");
  }
}

MachineSpec PlatformSpec::machine_spec() const {
  validate();
  MachineSpec spec;
  spec.name = name;
  spec.clusters.reserve(clusters.size());
  for (const PlatformCluster& cluster : clusters) {
    spec.clusters.push_back(cluster.topology);
  }
  return spec;
}

Machine PlatformSpec::make_machine() const { return Machine(machine_spec()); }

double PlatformSpec::assumed_ratio() const {
  if (default_r0 > 0.0) return default_r0;
  // Ask the materialized machine for its perf ranking so the derived r0
  // always names the exact cluster pair the managers adapt (single source
  // of truth; validates as a side effect).
  const Machine machine = make_machine();
  const double slow_ipc =
      clusters[static_cast<std::size_t>(machine.slowest_cluster())]
          .topology.ipc;
  const double fast_ipc =
      clusters[static_cast<std::size_t>(machine.fastest_cluster())]
          .topology.ipc;
  return slow_ipc > 0.0 ? fast_ipc / slow_ipc : 1.0;
}

std::string PlatformSpec::signature() const {
  std::string sig = name;
  for (const PlatformCluster& cluster : clusters) {
    const ClusterSpec& topo = cluster.topology;
    sig += '|';
    sig += std::to_string(static_cast<int>(topo.type)) + ':' +
           std::to_string(topo.core_count) + ':' + std::to_string(topo.ipc);
    for (double f : topo.freqs_ghz) sig += ',' + std::to_string(f);
    const PowerParams& p = cluster.power;
    sig += ';' + std::to_string(p.c_dyn) + ':' + std::to_string(p.c_leak) +
           ':' + std::to_string(p.c_mem) + ':' + std::to_string(p.k_therm);
  }
  sig += "|base=" + std::to_string(base_watts);
  sig += "|r0=" + std::to_string(default_r0);
  return sig;
}

PlatformSpec PlatformSpec::from_machine(const Machine& machine) {
  PlatformSpec spec;
  spec.name = machine.spec().name.empty() ? "custom" : machine.spec().name;
  for (const ClusterSpec& topo : machine.spec().clusters) {
    spec.clusters.push_back({topo, PowerParams::for_type(topo.type)});
  }
  return spec;
}

PlatformBuilder& PlatformBuilder::name(std::string platform_name) {
  spec_.name = std::move(platform_name);
  return *this;
}

PlatformBuilder& PlatformBuilder::cluster(CoreType type, int core_count,
                                          double ipc) {
  PlatformCluster cluster;
  cluster.topology.type = type;
  cluster.topology.core_count = core_count;
  cluster.topology.ipc = ipc;
  cluster.topology.freqs_ghz.clear();
  cluster.power = PowerParams::for_type(type);
  spec_.clusters.push_back(std::move(cluster));
  return *this;
}

PlatformBuilder& PlatformBuilder::freqs_ghz(std::vector<double> freqs) {
  if (spec_.clusters.empty()) {
    throw PlatformConfigError("freqs_ghz() requires a cluster() first");
  }
  spec_.clusters.back().topology.freqs_ghz = std::move(freqs);
  return *this;
}

PlatformBuilder& PlatformBuilder::freq_range_ghz(double lo_ghz,
                                                 double below_ghz,
                                                 double step_ghz) {
  if (spec_.clusters.empty()) {
    throw PlatformConfigError("freq_range_ghz() requires a cluster() first");
  }
  if (!(step_ghz > 0.0)) {
    throw PlatformConfigError("freq_range_ghz() step must be positive");
  }
  std::vector<double>& freqs = spec_.clusters.back().topology.freqs_ghz;
  freqs.clear();
  for (double f = lo_ghz; f < below_ghz; f += step_ghz) freqs.push_back(f);
  return *this;
}

PlatformBuilder& PlatformBuilder::power(PowerParams params) {
  if (spec_.clusters.empty()) {
    throw PlatformConfigError("power() requires a cluster() first");
  }
  spec_.clusters.back().power = params;
  return *this;
}

PlatformBuilder& PlatformBuilder::base_watts(double watts) {
  spec_.base_watts = watts;
  return *this;
}

PlatformBuilder& PlatformBuilder::assumed_ratio(double r0) {
  spec_.default_r0 = r0;
  return *this;
}

PlatformSpec PlatformBuilder::build() const {
  spec_.validate();
  return spec_;
}

}  // namespace hars
