#include "core/hars.hpp"

namespace hars {

const char* hars_variant_name(HarsVariant variant) {
  switch (variant) {
    case HarsVariant::kHarsI: return "HARS-I";
    case HarsVariant::kHarsE: return "HARS-E";
    case HarsVariant::kHarsEI: return "HARS-EI";
  }
  return "?";
}

std::optional<HarsVariant> parse_hars_variant(std::string_view name) {
  for (HarsVariant variant :
       {HarsVariant::kHarsI, HarsVariant::kHarsE, HarsVariant::kHarsEI}) {
    if (name == hars_variant_name(variant)) return variant;
  }
  return std::nullopt;
}

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
