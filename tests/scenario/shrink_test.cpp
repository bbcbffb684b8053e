// shrink_scenario: minimal repros from seeded known-bug fixtures. The
// acceptance bar — an injected invariant violation shrinks to <= 8
// events — plus the contract details: every intermediate candidate is
// valid, the budget is respected, and the result is a fixpoint.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "oracle/repro.hpp"
#include "oracle/shrink.hpp"
#include "scenario/generator.hpp"

namespace hars {
namespace {

/// A storm-profile draw whose phase range guarantees a phase_gt2
/// violation (scale > 2) somewhere in the scenario.
Scenario known_bug_fixture(std::uint64_t seed) {
  GeneratorSpec spec = ScenarioGenerator::profile("storm");
  spec.seed = seed;
  spec.horizon_s = 40.0;
  spec.phase_min = 2.2;
  spec.phase_max = 3.5;
  return ScenarioGenerator(spec).generate();
}

bool fails_phase_gt2(const Scenario& s) {
  return injected_failure(s, "phase_gt2").has_value();
}

TEST(Shrink, KnownBugFixtureShrinksToAtMostEightEvents) {
  int shrunk_fixtures = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario full = known_bug_fixture(seed);
    if (!fails_phase_gt2(full)) continue;  // This draw had no storm.
    ++shrunk_fixtures;
    ShrinkStats stats;
    const Scenario minimal =
        shrink_scenario(full, fails_phase_gt2, ShrinkOptions{}, &stats);
    EXPECT_TRUE(fails_phase_gt2(minimal)) << "seed " << seed;
    EXPECT_NO_THROW(minimal.validate()) << "seed " << seed;
    EXPECT_LE(minimal.events.size(), 8u)
        << "seed " << seed << ": " << minimal.to_dsl();
    EXPECT_LE(minimal.events.size(), full.events.size());
    EXPECT_GT(stats.attempts, 0);
    // The shrunk scenario round-trips through the DSL (it must be
    // writable as a corpus repro).
    std::istringstream in(minimal.to_dsl());
    EXPECT_TRUE(Scenario::from_stream(in) == minimal);
  }
  // phase_min > 2 makes every storm a violation; over 8 seeds at least
  // half the draws contain one (deterministic for these seeds).
  EXPECT_GE(shrunk_fixtures, 4);
}

TEST(Shrink, EveryCandidateShownToThePredicateIsValid) {
  const Scenario full = known_bug_fixture(3);
  ASSERT_TRUE(fails_phase_gt2(full));
  int invalid_candidates = 0;
  (void)shrink_scenario(full, [&](const Scenario& candidate) {
    try {
      candidate.validate();
    } catch (const ScenarioError&) {
      ++invalid_candidates;
    }
    return fails_phase_gt2(candidate);
  });
  EXPECT_EQ(invalid_candidates, 0);
}

TEST(Shrink, RespectsTheAttemptBudget) {
  const Scenario full = known_bug_fixture(3);
  ASSERT_TRUE(fails_phase_gt2(full));
  ShrinkOptions options;
  options.max_attempts = 5;
  int calls = 0;
  ShrinkStats stats;
  (void)shrink_scenario(
      full,
      [&](const Scenario& candidate) {
        ++calls;
        return fails_phase_gt2(candidate);
      },
      options, &stats);
  EXPECT_LE(calls, 5);
  EXPECT_LE(stats.attempts, 5);
}

TEST(Shrink, ResultIsAFixpoint) {
  const Scenario full = known_bug_fixture(3);
  ASSERT_TRUE(fails_phase_gt2(full));
  ShrinkStats first_stats;
  const Scenario minimal =
      shrink_scenario(full, fails_phase_gt2, ShrinkOptions{}, &first_stats);
  ShrinkStats again_stats;
  const Scenario again = shrink_scenario(minimal, fails_phase_gt2,
                                         ShrinkOptions{}, &again_stats);
  EXPECT_TRUE(again == minimal);
  EXPECT_EQ(again_stats.accepted, 0);
}

TEST(Shrink, PassingScenarioComesBackUntouched) {
  const Scenario full = known_bug_fixture(3);
  const Scenario untouched = shrink_scenario(
      full, [](const Scenario&) { return false; });
  EXPECT_TRUE(untouched == full);
}

}  // namespace
}  // namespace hars
