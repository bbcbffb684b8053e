#include "core/hars.hpp"

namespace hars {

RuntimeManagerConfig config_for_variant(HarsVariant variant) {
  RuntimeManagerConfig config;
  switch (variant) {
    case HarsVariant::kHarsI:
      config.policy = SearchPolicy::kIncremental;
      config.scheduler = ThreadSchedulerKind::kChunk;
      break;
    case HarsVariant::kHarsE:
      config.policy = SearchPolicy::kExhaustive;
      config.scheduler = ThreadSchedulerKind::kChunk;
      break;
    case HarsVariant::kHarsEI:
      config.policy = SearchPolicy::kExhaustive;
      config.scheduler = ThreadSchedulerKind::kInterleaved;
      break;
  }
  return config;
}

}  // namespace hars
