// Churn stress regression: generated spawn-after-kill and hotplug
// cascades run with the debug invariant audits forced on, locking the
// multi-app managers' remove_app bookkeeping (dead-app state must be
// fully reclaimed before the id is reused or the core map is rebuilt).
// Sanitizer CI runs this same binary, so the cascades also sweep for
// use-after-free in the app teardown path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle/fuzz_harness.hpp"
#include "scenario/generator.hpp"

namespace hars {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kCasesPerVariant = 2;
#else
constexpr int kCasesPerVariant = 8;
#endif

/// Churn profile cranked up: fast arrivals, heavy-tailed short lives,
/// near-certain departures, plus hotplug cascades — the maximum rate of
/// spawn-after-kill transitions the generator can express.
GeneratorSpec churn_spec(std::uint64_t seed) {
  GeneratorSpec spec = ScenarioGenerator::profile("churn");
  spec.seed = seed;
  spec.horizon_s = 12.0;
  spec.arrival_rate_hz = 0.8;
  spec.lifetime_min_s = 0.8;
  spec.lifetime_max_s = 5.0;
  spec.depart_prob = 1.0;
  spec.hotplug_rate_hz = 0.08;
  return spec;
}

void run_churn(const std::string& variant) {
  for (int i = 0; i < kCasesPerVariant; ++i) {
    ReproCase repro;
    repro.scenario =
        ScenarioGenerator(churn_spec(500u + static_cast<std::uint64_t>(i)))
            .generate();
    repro.variant = variant;
    repro.seed = 1;
    repro.duration_sec = 12.0;
    // Audits + AllocGuard + differential: a stale pointer or leaked
    // bookkeeping entry in remove_app shows up either as an audit throw
    // or as a divergence from the reference path.
    const FuzzCaseResult outcome = run_fuzz_case(repro, /*differential=*/true);
    EXPECT_FALSE(outcome.failed)
        << variant << " case " << i << " (" << repro.scenario.name
        << "): " << outcome.message;
    // The cascades actually exercise churn: at least one mid-run spawn
    // and one kill per scenario.
    int spawns = 0, kills = 0;
    for (const ScenarioEvent& e : repro.scenario.events) {
      spawns += e.kind == ScenarioEventKind::kSpawn && e.time > 0;
      kills += e.kind == ScenarioEventKind::kKill;
    }
    EXPECT_GT(spawns, 0) << repro.scenario.name;
    EXPECT_GT(kills, 0) << repro.scenario.name;
  }
}

TEST(ChurnStress, MpHarsESurvivesSpawnAfterKillCascades) {
  run_churn("MP-HARS-E");
}

TEST(ChurnStress, MpHarsISurvivesSpawnAfterKillCascades) {
  run_churn("MP-HARS-I");
}

TEST(ChurnStress, ConsISurvivesSpawnAfterKillCascades) { run_churn("CONS-I"); }

}  // namespace
}  // namespace hars
