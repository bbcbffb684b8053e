// Corpus repro files: byte-identical format/parse round-trip, recipe
// field coverage, tolerance for foreign comments, and the injected
// synthetic oracles used by harness self-tests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/parsec.hpp"
#include "oracle/repro.hpp"

namespace hars {
namespace {

ReproCase sample_repro() {
  ReproCase repro;
  std::istringstream dsl(
      "scenario,gen:storm:seed=7\n"
      "0,spawn,app=g0,bench=FA\n"
      "1000,set_phase,app=g0,scale=2.8\n");
  repro.scenario = Scenario::from_stream(dsl);
  repro.variant = "MP-HARS-E";
  repro.platform = "exynos5422";
  repro.seed = 42;
  repro.threads = 4;
  repro.duration_sec = 12.5;
  repro.fraction = 0.85;
  repro.inject = "phase_gt2";
  repro.expect_fail = true;
  repro.failure = "injected phase_gt2: set_phase scale=2.8 > 2";
  repro.generator = "gen:storm:seed=7";
  repro.shrink_attempts = 31;
  repro.original_events = 19;
  repro.rerun = "hars_fuzz --repro fuzz/corpus/sample.scenario.csv";
  return repro;
}

TEST(Repro, FormatParseRoundTripsByteIdentically) {
  const std::string first = format_repro(sample_repro());
  std::istringstream in(first);
  const ReproCase reparsed = parse_repro(in);
  EXPECT_EQ(format_repro(reparsed), first);

  EXPECT_EQ(reparsed.variant, "MP-HARS-E");
  EXPECT_EQ(reparsed.seed, 42u);
  EXPECT_EQ(reparsed.threads, 4);
  EXPECT_DOUBLE_EQ(reparsed.duration_sec, 12.5);
  EXPECT_DOUBLE_EQ(reparsed.fraction, 0.85);
  EXPECT_EQ(reparsed.inject, "phase_gt2");
  EXPECT_TRUE(reparsed.expect_fail);
  EXPECT_EQ(reparsed.shrink_attempts, 31);
  EXPECT_EQ(reparsed.original_events, 19u);
  EXPECT_TRUE(reparsed.scenario == sample_repro().scenario);
}

TEST(Repro, DefaultsAreElidedAndPassExpectationParses) {
  ReproCase repro = sample_repro();
  repro.threads = 0;
  repro.inject.clear();
  repro.expect_fail = false;
  repro.failure.clear();
  repro.generator.clear();
  repro.shrink_attempts = 0;
  repro.original_events = 0;
  repro.rerun.clear();
  const std::string text = format_repro(repro);
  EXPECT_EQ(text.find("# threads="), std::string::npos);
  EXPECT_EQ(text.find("# inject="), std::string::npos);
  EXPECT_NE(text.find("# expect=pass"), std::string::npos);
  std::istringstream in(text);
  const ReproCase reparsed = parse_repro(in);
  EXPECT_FALSE(reparsed.expect_fail);
  EXPECT_EQ(format_repro(reparsed), text);
}

TEST(Repro, ParsesAsAPlainScenarioAndIgnoresForeignComments) {
  const std::string text =
      "# hars_fuzz repro v1\n"
      "# variant=HARS-E\n"
      "# some free-form note that is not key=value\n"
      "# unknown_key=whatever\n"
      "# expect=fail\n"
      "scenario,hand-written\n"
      "0,spawn,app=a,bench=SW\n";
  std::istringstream as_repro(text);
  const ReproCase repro = parse_repro(as_repro);
  EXPECT_EQ(repro.variant, "HARS-E");
  EXPECT_TRUE(repro.expect_fail);
  // The same bytes are a valid ordinary scenario file.
  std::istringstream as_scenario(text);
  const Scenario s = Scenario::from_stream(as_scenario);
  EXPECT_EQ(s.name, "hand-written");
}

TEST(Repro, MalformedScenarioBodyStillCarriesTheLine) {
  const std::string text =
      "# hars_fuzz repro v1\n"
      "# variant=HARS-E\n"
      "scenario,broken\n"
      "0,spawn,app=a,bench=SW\n"
      "0,kill,app=a\n";
  std::istringstream in(text);
  try {
    (void)parse_repro(in);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("line 5 (kill)"),
              std::string::npos)
        << error.what();
  }
}

// --- Injected synthetic oracles ---

Scenario storm_scenario(double scale) {
  std::istringstream in("scenario,s\n0,spawn,app=a,bench=SW\n"
                        "1000,set_phase,app=a,scale=" +
                        std::to_string(scale) + "\n");
  return Scenario::from_stream(in);
}

TEST(InjectedFailure, PhaseGt2FiresOnlyAboveTwo) {
  EXPECT_TRUE(injected_failure(storm_scenario(2.5), "phase_gt2").has_value());
  EXPECT_FALSE(injected_failure(storm_scenario(2.0), "phase_gt2").has_value());
  EXPECT_FALSE(injected_failure(storm_scenario(0.7), "phase_gt2").has_value());
}

TEST(InjectedFailure, KillDuringOutageTracksTheOfflineMask) {
  const auto scenario = [](const std::string& tail) {
    std::istringstream in("scenario,s\n0,spawn,app=a,bench=SW\n"
                          "0,spawn,app=b,bench=BO\n" +
                          tail);
    return Scenario::from_stream(in);
  };
  // Kill while cores 4-5 are offline: fires.
  EXPECT_TRUE(injected_failure(scenario("1000,offline_cores,cores=4-5\n"
                                        "2000,kill,app=b\n"),
                               "kill_during_outage")
                  .has_value());
  // Full recovery before the kill: clean.
  EXPECT_FALSE(injected_failure(scenario("1000,offline_cores,cores=4-5\n"
                                         "2000,online_cores,cores=4-5\n"
                                         "3000,kill,app=b\n"),
                                "kill_during_outage")
                   .has_value());
  // Partial recovery (core 5 still down): fires.
  EXPECT_TRUE(injected_failure(scenario("1000,offline_cores,cores=4-5\n"
                                        "2000,online_cores,cores=4\n"
                                        "3000,kill,app=b\n"),
                               "kill_during_outage")
                  .has_value());
  // No outage at all: clean.
  EXPECT_FALSE(
      injected_failure(scenario("2000,kill,app=b\n"), "kill_during_outage")
          .has_value());
}

TEST(InjectedFailure, UnknownKindThrowsAndListsTheKnownOnes) {
  const Scenario s = storm_scenario(1.0);
  try {
    (void)injected_failure(s, "no_such_oracle");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("phase_gt2"), std::string::npos) << message;
    EXPECT_NE(message.find("kill_during_outage"), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace hars
