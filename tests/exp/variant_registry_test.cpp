// The registry must know every runtime version of the paper, round-trip
// names, and accept user-registered variants.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"

namespace hars {
namespace {

TEST(VariantRegistry, KnowsAllPaperVariants) {
  const std::vector<std::string> expected{"Baseline", "SO",       "HARS-I",
                                          "HARS-E",   "HARS-EI",  "CONS-I",
                                          "MP-HARS-I", "MP-HARS-E"};
  const std::vector<std::string> names = VariantRegistry::instance().names();
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing variant " << name;
  }
}

TEST(VariantRegistry, LookupRoundTripsEveryName) {
  VariantRegistry& registry = VariantRegistry::instance();
  for (const std::string& name : registry.names()) {
    const VariantEntry* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
    EXPECT_TRUE(entry->factory != nullptr) << name;
  }
}

TEST(VariantRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(VariantRegistry::instance().find("NO-SUCH-VARIANT"), nullptr);
}

TEST(VariantRegistry, OldEnumNamesResolve) {
  // Every figure name of the paper's eight runtime versions must be a
  // registry key, so string-based lookup covers the whole evaluation.
  VariantRegistry& registry = VariantRegistry::instance();
  for (const char* name :
       {"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  for (const char* name : {"CONS-I", "MP-HARS-I", "MP-HARS-E"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(VariantRegistry, SingleAppVariantsDeclareSingleAppTraits) {
  VariantRegistry& registry = VariantRegistry::instance();
  for (const char* name : {"SO", "HARS-I", "HARS-E", "HARS-EI"}) {
    const VariantEntry* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->traits.max_apps, 1) << name;
  }
  for (const char* name : {"Baseline", "CONS-I", "MP-HARS-I", "MP-HARS-E"}) {
    const VariantEntry* entry = registry.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_GT(entry->traits.max_apps, 1) << name;
  }
}

TEST(VariantRegistry, UserVariantRegistersAndRuns) {
  VariantRegistry& registry = VariantRegistry::instance();
  VariantRegistrar reg("TEST-NOOP", VariantTraits{1, 4, 0, false},
                       [](const VariantSetup&) {
                         return std::make_unique<VariantInstance>();
                       });
  ASSERT_NE(registry.find("TEST-NOOP"), nullptr);

  // A registered variant is immediately runnable through the builder.
  const ExperimentResult r = ExperimentBuilder()
                                 .app(ParsecBenchmark::kSwaptions)
                                 .variant("TEST-NOOP")
                                 .duration(5 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_GT(r.apps.front().metrics.heartbeats, 0);
}

TEST(VariantRegistry, ParseHelpersRoundTrip) {
  for (ThreadSchedulerKind kind :
       {ThreadSchedulerKind::kChunk, ThreadSchedulerKind::kInterleaved,
        ThreadSchedulerKind::kHierarchical}) {
    EXPECT_EQ(parse_thread_scheduler(thread_scheduler_name(kind)), kind);
  }
  for (PredictorKind kind :
       {PredictorKind::kLastValue, PredictorKind::kKalman}) {
    EXPECT_EQ(parse_predictor_kind(predictor_kind_name(kind)), kind);
  }
  for (SearchPolicy policy : {SearchPolicy::kIncremental,
                              SearchPolicy::kExhaustive, SearchPolicy::kTabu}) {
    EXPECT_EQ(parse_search_policy(search_policy_name(policy)), policy);
  }
  EXPECT_EQ(parse_thread_scheduler("bogus"), std::nullopt);
  EXPECT_EQ(parse_predictor_kind(""), std::nullopt);
  EXPECT_EQ(parse_search_policy("Exhaustive"), std::nullopt);
}

}  // namespace
}  // namespace hars
