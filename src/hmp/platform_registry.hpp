// PlatformRegistry: the string-keyed catalogue of platforms, modeled on
// VariantRegistry. Built-in presets register at construction:
//
//   exynos5422   the paper's ODROID-XU3 part (Machine::exynos5422() +
//                the per-core-type power defaults)
//   sd855        a tri-cluster big.LITTLE.prime mobile SoC (4+3+1)
//   server2x8    a symmetric two-socket-style 2x8 server part
//   manycore4x4  four graded 4-core clusters (16 cores)
//
// Every accessor locks, so concurrent Experiment::run() calls from sweep
// workers can resolve platforms safely. register_platform throws on a
// duplicate name unless replace is requested; register new platforms
// before launching a parallel sweep.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hmp/platform_spec.hpp"

namespace hars {

class PlatformRegistry {
 public:
  /// The process-wide registry with the built-in presets pre-registered
  /// (C++ magic static; construction is once-only).
  static PlatformRegistry& instance();

  /// Registers `spec` (validate()d) under spec.name. Throws
  /// PlatformConfigError when the name is already registered and
  /// `replace` is false.
  void register_platform(PlatformSpec spec, bool replace = false);

  /// Null when `name` is unknown. The pointer stays valid across later
  /// registrations (deque storage) but not across a replace of the same
  /// name; prefer get() from sweep workers.
  const PlatformSpec* find(std::string_view name) const;

  /// Copy of the named platform; throws PlatformConfigError listing the
  /// known names when `name` is unknown.
  PlatformSpec get(std::string_view name) const;

  /// All registered names, in registration order.
  std::vector<std::string> names() const;

 private:
  PlatformRegistry();
  mutable std::mutex mutex_;
  std::deque<PlatformSpec> entries_;
};

/// RAII registration helper so platforms can self-register from any
/// translation unit:
///   static PlatformRegistrar reg(my_platform_spec());
struct PlatformRegistrar {
  explicit PlatformRegistrar(PlatformSpec spec, bool replace = false) {
    PlatformRegistry::instance().register_platform(std::move(spec), replace);
  }
};

}  // namespace hars
