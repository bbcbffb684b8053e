#include "hmp/platform_registry.hpp"

#include <utility>

namespace hars {

namespace {

/// The paper's platform. Built from Machine::exynos5422() — the single
/// source of truth for the topology — plus the per-core-type power
/// parameters (PowerParams::for_type: Cortex-A15 and A7) and
/// PlatformSpec::kDefaultBaseWatts.
PlatformSpec exynos5422_platform() {
  return PlatformSpec::from_machine(Machine::exynos5422());
}

/// A tri-cluster big.LITTLE.prime mobile SoC in the Snapdragon 855 mold:
/// 4 efficiency cores, 3 big cores, 1 higher-clocked prime core. HARS's
/// two-pool model maps onto it as prime (fastest) vs. little (slowest),
/// with the middle cluster serving baseline/OS-scheduled load.
PlatformSpec sd855_platform() {
  PowerParams prime = PowerParams::cortex_a15();
  prime.c_dyn = 0.34;
  prime.c_leak = 0.18;
  return PlatformBuilder()
      .name("sd855")
      .cluster(CoreType::kLittle, 4, 2.0)
      .freq_range_ghz(0.6, 1.81, 0.3)  // 0.6 .. 1.8, 5 levels
      .cluster(CoreType::kBig, 3, 3.0)
      .freq_range_ghz(0.8, 2.41, 0.4)  // 0.8 .. 2.4, 5 levels
      .cluster(CoreType::kBig, 1, 3.5)
      .freq_range_ghz(1.0, 2.81, 0.6)  // 1.0 .. 2.8, 4 levels
      .power(prime)
      .base_watts(0.8)
      .build();
}

/// A symmetric 2x8 server part: two identical 8-core clusters with
/// per-cluster DVFS. The perf-ranked capability API ties toward cluster 0,
/// so HARS's "fast pool" is cluster 0 and its "slow pool" cluster 1.
PlatformSpec server2x8_platform() {
  PowerParams socket;
  socket.c_dyn = 0.90;
  socket.c_leak = 0.50;
  socket.c_mem = 0.12;
  socket.k_therm = 0.015;
  return PlatformBuilder()
      .name("server2x8")
      .cluster(CoreType::kBig, 8, 4.0)
      .freq_range_ghz(1.2, 3.01, 0.3)  // 1.2 .. 3.0, 7 levels
      .power(socket)
      .cluster(CoreType::kBig, 8, 4.0)
      .freq_range_ghz(1.2, 3.01, 0.3)
      .power(socket)
      .base_watts(20.0)
      .build();
}

/// Four graded 4-core clusters (16 cores): a many-core part with a smooth
/// efficiency/performance spectrum. HARS adapts over the extremes; the
/// middle clusters carry OS-scheduled load.
PlatformSpec manycore4x4_platform() {
  PowerParams mid = PowerParams::cortex_a15();
  mid.c_dyn = 0.20;
  mid.c_leak = 0.10;
  return PlatformBuilder()
      .name("manycore4x4")
      .cluster(CoreType::kLittle, 4, 1.5)
      .freq_range_ghz(0.5, 1.51, 0.25)  // 0.5 .. 1.5, 5 levels
      .cluster(CoreType::kLittle, 4, 2.0)
      .freq_range_ghz(0.6, 1.81, 0.3)  // 0.6 .. 1.8, 5 levels
      .cluster(CoreType::kBig, 4, 2.5)
      .freq_range_ghz(0.8, 2.01, 0.3)  // 0.8 .. 2.0, 5 levels
      .power(mid)
      .cluster(CoreType::kBig, 4, 3.0)
      .freq_range_ghz(1.0, 2.21, 0.3)  // 1.0 .. 2.2, 5 levels
      .base_watts(1.2)
      .build();
}

}  // namespace

PlatformRegistry::PlatformRegistry() {
  register_platform(exynos5422_platform());
  register_platform(sd855_platform());
  register_platform(server2x8_platform());
  register_platform(manycore4x4_platform());
}

PlatformRegistry& PlatformRegistry::instance() {
  static PlatformRegistry registry;
  return registry;
}

void PlatformRegistry::register_platform(PlatformSpec spec, bool replace) {
  spec.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  for (PlatformSpec& entry : entries_) {
    if (entry.name == spec.name) {
      if (!replace) {
        throw PlatformConfigError("platform \"" + spec.name +
                                  "\" is already registered");
      }
      entry = std::move(spec);
      return;
    }
  }
  entries_.push_back(std::move(spec));
}

const PlatformSpec* PlatformRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const PlatformSpec& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

PlatformSpec PlatformRegistry::get(std::string_view name) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const PlatformSpec& entry : entries_) {
      if (entry.name == name) return entry;
    }
  }
  std::string message = "unknown platform \"";
  message += name;
  message += "\"; known:";
  for (const std::string& known : names()) {
    message += ' ';
    message += known;
  }
  throw PlatformConfigError(message);
}

std::vector<std::string> PlatformRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const PlatformSpec& entry : entries_) out.push_back(entry.name);
  return out;
}

}  // namespace hars
