// ExperimentBuilder::build() must reject inconsistent configurations with
// a descriptive ExperimentConfigError instead of silently ignoring them
// (the old runner dropped unknown overrides on the floor).
#include <gtest/gtest.h>

#include "exp/experiment.hpp"

namespace hars {
namespace {

ExperimentBuilder valid_single() {
  ExperimentBuilder builder;
  builder.app(ParsecBenchmark::kSwaptions).variant("HARS-E");
  return builder;
}

TEST(BuilderValidation, AcceptsValidSingleAppConfig) {
  EXPECT_NO_THROW(valid_single().build());
}

TEST(BuilderValidation, RejectsEmptyAppList) {
  ExperimentBuilder builder;
  builder.variant("HARS-E");
  EXPECT_THROW(builder.build(), ExperimentConfigError);
}

TEST(BuilderValidation, RejectsUnknownVariant) {
  ExperimentBuilder builder = valid_single();
  builder.variant("HARS-X");
  try {
    builder.build();
    FAIL() << "expected ExperimentConfigError";
  } catch (const ExperimentConfigError& error) {
    // The error names the known variants so typos are self-diagnosing.
    EXPECT_NE(std::string(error.what()).find("HARS-EI"), std::string::npos);
  }
}

TEST(BuilderValidation, RejectsTuningTheVariantIgnores) {
  // The old runner silently ignored HARS overrides under Baseline/SO;
  // the builder makes that a configuration error.
  for (const char* variant : {"Baseline", "SO"}) {
    ExperimentBuilder builder;
    builder.app(ParsecBenchmark::kSwaptions).variant(variant);
    builder.scheduler(ThreadSchedulerKind::kInterleaved);
    EXPECT_THROW(builder.build(), ExperimentConfigError) << variant;
  }
  ExperimentBuilder cons;
  cons.apps(multiapp_cases()[0]).variant("CONS-I");
  cons.predictor(PredictorKind::kKalman);  // CONS-I has no predictor.
  EXPECT_THROW(cons.build(), ExperimentConfigError);
}

TEST(BuilderValidation, RejectsMultiAppForSingleAppVariants) {
  for (const char* variant : {"SO", "HARS-I", "HARS-E", "HARS-EI"}) {
    ExperimentBuilder builder;
    builder.apps(multiapp_cases()[0]).variant(variant);
    EXPECT_THROW(builder.build(), ExperimentConfigError) << variant;
  }
}

TEST(BuilderValidation, AcceptsMultiAppForMultiAppVariants) {
  for (const char* variant : {"Baseline", "CONS-I", "MP-HARS-I", "MP-HARS-E"}) {
    ExperimentBuilder builder;
    builder.apps(multiapp_cases()[0]).variant(variant);
    EXPECT_NO_THROW(builder.build()) << variant;
  }
}

TEST(BuilderValidation, RejectsStaticOptimalForCustomApps) {
  ExperimentBuilder builder;
  builder.app("custom", [](int, std::uint64_t) {
    return make_parsec_app(ParsecBenchmark::kSwaptions);
  });
  builder.target(PerfTarget::around(2.0)).variant("SO");
  EXPECT_THROW(builder.build(), ExperimentConfigError);
}

TEST(BuilderValidation, RejectsBadNumericRanges) {
  EXPECT_THROW(valid_single().target_fraction(0.0).build(),
               ExperimentConfigError);
  EXPECT_THROW(valid_single().target_fraction(1.5).build(),
               ExperimentConfigError);
  EXPECT_THROW(valid_single().duration(0).build(), ExperimentConfigError);
  EXPECT_THROW(valid_single().threads(0).build(), ExperimentConfigError);
  EXPECT_THROW(valid_single().adapt_period(0).build(), ExperimentConfigError);
  EXPECT_THROW(valid_single().assumed_ratio(-1.0).build(),
               ExperimentConfigError);
  EXPECT_THROW(valid_single().search_distance(-2).build(),
               ExperimentConfigError);
}

TEST(BuilderValidation, RejectsTargetBeforeApp) {
  ExperimentBuilder builder;
  EXPECT_THROW(builder.target(PerfTarget::around(2.0)),
               ExperimentConfigError);
}

TEST(BuilderValidation, RejectsEmptyTargetWindow) {
  ExperimentBuilder builder;
  builder.app(ParsecBenchmark::kSwaptions)
      .target(PerfTarget{3.0, 2.0})  // min > max.
      .variant("HARS-E");
  EXPECT_THROW(builder.build(), ExperimentConfigError);
}

// Regression: a window like {-2, 1} passed the old max-only check but has
// a non-positive average, which silently zeroed every normalized-perf
// score (normalized_perf returns 0 for avg <= 0) and made the search pick
// arbitrarily among candidates all tied at pp = 0.
TEST(BuilderValidation, RejectsNonPositiveTargetAverage) {
  for (const PerfTarget target :
       {PerfTarget{-2.0, 1.0}, PerfTarget{-1.0, 0.5}, PerfTarget{0.0, 0.0},
        PerfTarget{-3.0, -1.0}}) {
    ExperimentBuilder builder;
    builder.app(ParsecBenchmark::kSwaptions).target(target).variant("HARS-E");
    EXPECT_THROW(builder.build(), ExperimentConfigError)
        << "min=" << target.min << " max=" << target.max;
  }
  // A positive window is still accepted.
  ExperimentBuilder ok;
  ok.app(ParsecBenchmark::kSwaptions)
      .target(PerfTarget{0.5, 1.5})
      .variant("HARS-E");
  EXPECT_NO_THROW(ok.build());
}

TEST(BuilderValidation, RejectsSamplerWithoutPeriod) {
  ExperimentBuilder builder = valid_single();
  builder.sample_every(0, [](const RunView&) {});
  EXPECT_THROW(builder.build(), ExperimentConfigError);
}

TEST(BuilderValidation, AutoProtocolResolvesByAppCount) {
  const Experiment single = valid_single().build();
  EXPECT_EQ(single.spec().protocol, RunProtocol::kSteadyState);
  ExperimentBuilder multi;
  multi.apps(multiapp_cases()[0]).variant("MP-HARS-E");
  EXPECT_EQ(multi.build().spec().protocol, RunProtocol::kColdStart);
}

}  // namespace
}  // namespace hars
