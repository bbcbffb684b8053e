// The evaluated HARS variants (thesis §5.1.1) and the manager
// configuration the paper uses for each.
//
//   HARS-I  - incremental search (m/n/d = 1 toward the needed direction),
//             chunk-based scheduler;
//   HARS-E  - exhaustive search (m = n = 4, d = 7), chunk-based scheduler;
//   HARS-EI - exhaustive search with the interleaving scheduler.
#pragma once

#include "core/runtime_manager.hpp"

namespace hars {

enum class HarsVariant { kHarsI, kHarsE, kHarsEI };

/// The manager configuration the paper uses for each variant.
RuntimeManagerConfig config_for_variant(HarsVariant variant);

}  // namespace hars
