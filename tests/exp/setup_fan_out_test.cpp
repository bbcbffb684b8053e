// Set-up records do not depend on the set-up fan-out: scenario targets
// and an SO oracle choice pinned as hex floats, and a warm run that finds
// every key cached starts no thread. Each test uses seeds no other test
// uses, so the process-wide calibration and oracle caches start cold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/calibration.hpp"
#include "exp/experiment.hpp"
#include "exp/static_optimal.hpp"
#include "hmp/platform_registry.hpp"
#include "obs/metrics.hpp"
#include "scenario/generator.hpp"
#include "scenario/scenario_runtime.hpp"
#include "util/fan_out.hpp"

namespace hars {
namespace {

Scenario churn_scenario(std::uint64_t seed, double horizon_s) {
  GeneratorSpec g = ScenarioGenerator::profile("churn");
  g.seed = seed;
  g.horizon_s = horizon_s;
  return ScenarioGenerator(g).generate();
}

Experiment churn_experiment(std::string_view platform, std::uint64_t seed) {
  ExperimentBuilder b;
  b.platform(platform)
      .scenario(churn_scenario(60606, 20))
      .variant("MP-HARS-E")
      .threads(8)
      .duration_sec(20)
      .seed(seed);
  return b.build();
}

void expect_targets(const std::vector<PerfTarget>& got,
                    const std::vector<PerfTarget>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].min, want[i].min) << "spawn " << i;
    EXPECT_EQ(got[i].max, want[i].max) << "spawn " << i;
  }
}

TEST(SetupFanOut, ScenarioTargetsPinnedOnExynos) {
  const Experiment e = churn_experiment("exynos5422", 70700);
  // Every third spawn is calibrated beforehand, so the batch mixes
  // lookups with fanned-out calibrations.
  const auto spawns = e.spec().scenario->spawns();
  for (std::size_t i = 1; i < spawns.size(); i += 3) {
    const ScenarioSpawn& spawn = spawns[i]->spawn;
    calibrate_benchmark(e.spec().platform, *spawn.bench,
                        spawn.threads > 0 ? spawn.threads : 8, 70700 + i);
  }
  expect_targets(resolve_scenario_targets(e.spec(), *e.spec().scenario),
                 {{0x1.c1eb851eb851fp-1, 0x1.f147ae147ae15p-1},
                  {0x1.e35c28f5c28f6p+0, 0x1.0b1eb851eb852p+1},
                  {0x1.7cp+0, 0x1.a4p+0},
                  {0x1.82147ae147ae1p+0, 0x1.aab851eb851ebp+0},
                  {0x1.ce147ae147ae1p-1, 0x1.feb851eb851ebp-1},
                  {0x1.c8p-1, 0x1.f8p-1},
                  {0x1.78f5c28f5c28fp+0, 0x1.a0a3d70a3d70bp+0},
                  {0x1.7f0a3d70a3d7p+0, 0x1.a75c28f5c28f6p+0},
                  {0x1.ce147ae147ae1p+0, 0x1.feb851eb851ebp+0}});
}

TEST(SetupFanOut, ScenarioTargetsPinnedOnSd855) {
  const Experiment e = churn_experiment("sd855", 70700);
  expect_targets(resolve_scenario_targets(e.spec(), *e.spec().scenario),
                 {{0x1.63ae147ae147ap+0, 0x1.891eb851eb852p+0},
                  {0x1.8399999999999p+1, 0x1.ac66666666667p+1},
                  {0x1.255c28f5c28f6p+1, 0x1.443d70a3d70a4p+1},
                  {0x1.2b70a3d70a3d7p+1, 0x1.4af5c28f5c28fp+1},
                  {0x1.66b851eb851ecp+0, 0x1.8c7ae147ae148p+0},
                  {0x1.63ae147ae147ap+0, 0x1.891eb851eb852p+0},
                  {0x1.255c28f5c28f6p+1, 0x1.443d70a3d70a4p+1},
                  {0x1.2866666666666p+1, 0x1.479999999999ap+1},
                  {0x1.683d70a3d70a3p+1, 0x1.8e28f5c28f5c3p+1}});
}

TEST(SetupFanOut, StaticOptimalPinned) {
  const PlatformSpec platform =
      PlatformRegistry::instance().get("exynos5422");
  const Calibration cal =
      calibrate_benchmark(platform, ParsecBenchmark::kBodytrack, 8, 80808);
  EXPECT_EQ(cal.max_rate_hps, 0x1.ep+1);
  StaticOptimalOptions so;
  so.threads = 8;
  so.seed = 80808;
  const StaticOptimalResult r = find_static_optimal(
      ParsecBenchmark::kBodytrack, cal.target_for_fraction(0.5), so);
  EXPECT_EQ(r.state, (SystemState{0, 4, 0, 4}));
  EXPECT_EQ(r.measured_pp, 0x1.2fa48df54d54dp-1);
  EXPECT_EQ(r.measured_rate, 0x1.ddddddddddddep+0);
  EXPECT_TRUE(r.satisfies_target);
}

/// Snapshot value of a cache counter (0 before its first lookup).
std::uint64_t cache_count(const std::string& name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::instance().take_snapshot();
  const obs::MetricValue* metric = snapshot.find(name);
  return metric == nullptr ? 0 : metric->counter;
}

TEST(SetupFanOut, WarmRunStartsNoThreadAndOnlyHits) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  ExperimentBuilder scenario_run;
  scenario_run.platform("sd855")
      .scenario(churn_scenario(60607, 12))
      .variant("MP-HARS-E")
      .threads(8)
      .duration_sec(12)
      .seed(70800);
  ExperimentBuilder so_run;
  so_run.app(ParsecBenchmark::kFerret)
      .variant("SO")
      .protocol(RunProtocol::kSteadyState)
      .duration_sec(5)
      .seed(80900);
  const Experiment scenario = scenario_run.build();
  const Experiment so = so_run.build();
  const std::size_t spawns = scenario.spec().scenario->spawns().size();
  ASSERT_GE(spawns, 2u);

  const ExperimentResult cold_scenario = scenario.run();
  const ExperimentResult cold_so = so.run();
  obs::ensure_thread_registered();
  const std::size_t threads = fan_out_threads_started();
  const std::uint64_t cal_hit = cache_count("cache.calibration.hit");
  const std::uint64_t cal_miss = cache_count("cache.calibration.miss");
  const std::uint64_t so_hit = cache_count("cache.static_optimal.hit");
  const std::uint64_t so_miss = cache_count("cache.static_optimal.miss");

  const ExperimentResult warm_scenario = scenario.run();
  const ExperimentResult warm_so = so.run();
  EXPECT_EQ(fan_out_threads_started(), threads);
  // One lookup per spawn and one per SO calibration, every one a hit.
  EXPECT_EQ(cache_count("cache.calibration.hit") - cal_hit, spawns + 1);
  EXPECT_EQ(cache_count("cache.calibration.miss"), cal_miss);
  EXPECT_EQ(cache_count("cache.static_optimal.hit") - so_hit, 1u);
  EXPECT_EQ(cache_count("cache.static_optimal.miss"), so_miss);
  registry.set_enabled(false);

  EXPECT_EQ(warm_so.static_state, cold_so.static_state);
  ASSERT_EQ(warm_scenario.apps.size(), cold_scenario.apps.size());
  for (std::size_t i = 0; i < cold_scenario.apps.size(); ++i) {
    EXPECT_EQ(warm_scenario.apps[i].target.min,
              cold_scenario.apps[i].target.min);
    EXPECT_EQ(warm_scenario.apps[i].metrics.perf_per_watt,
              cold_scenario.apps[i].metrics.perf_per_watt);
  }
}

}  // namespace
}  // namespace hars
