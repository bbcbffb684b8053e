// Platform API integration: the golden exynos5422 regression (the
// registry preset must reproduce the historical hard-wired
// Machine::exynos5422() preset bit-for-bit) and N-cluster scenario
// diversity (every registered runtime version completes on every
// registered platform, serially and through the sweep engine).
#include <gtest/gtest.h>

#include <cmath>

#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"

namespace hars {
namespace {

/// One figure-5.1 case: swaptions, default 50% target, HARS-E.
ExperimentBuilder fig51_case() {
  ExperimentBuilder builder;
  builder.app(ParsecBenchmark::kSwaptions)
      .variant("HARS-E")
      .target_fraction(0.5)
      .duration(40 * kUsPerSec);
  return builder;
}

void expect_bitwise_equal(const ExperimentResult& a,
                          const ExperimentResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.adaptations, b.adaptations);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const RunMetrics& ma = a.apps[i].metrics;
    const RunMetrics& mb = b.apps[i].metrics;
    EXPECT_EQ(ma.norm_perf, mb.norm_perf);
    EXPECT_EQ(ma.avg_rate_hps, mb.avg_rate_hps);
    EXPECT_EQ(ma.avg_power_w, mb.avg_power_w);
    EXPECT_EQ(ma.perf_per_watt, mb.perf_per_watt);
    EXPECT_EQ(ma.energy_j, mb.energy_j);
    EXPECT_EQ(ma.heartbeats, mb.heartbeats);
    EXPECT_EQ(ma.in_window_fraction, mb.in_window_fraction);
    EXPECT_EQ(a.apps[i].target.min, b.apps[i].target.min);
    EXPECT_EQ(a.apps[i].target.max, b.apps[i].target.max);
  }
}

TEST(PlatformGolden, RegistryPresetReproducesMachinePresetBitForBit) {
  // The historical hard-wired path: the Machine preset wrapped with the
  // per-core-type power defaults.
  const ExperimentResult machine_path =
      fig51_case()
          .platform(PlatformSpec::from_machine(Machine::exynos5422()))
          .build()
          .run();
  // The redesigned path: the registry preset by name.
  const ExperimentResult named_path =
      fig51_case().platform("exynos5422").build().run();
  // And the builder default (no platform() call at all).
  const ExperimentResult default_path = fig51_case().build().run();

  EXPECT_GT(machine_path.app().metrics.heartbeats, 0);
  expect_bitwise_equal(machine_path, named_path);
  expect_bitwise_equal(machine_path, default_path);
}

TEST(PlatformGolden, UnknownPlatformNameThrows) {
  ExperimentBuilder builder;
  EXPECT_THROW(builder.platform("no-such-platform"), ExperimentConfigError);
}

TEST(PlatformDiversity, AllVariantsCompleteOnTriClusterPlatform) {
  // Acceptance: every registered runtime version finishes a sweep on
  // every registered platform (the tri-cluster sd855, the symmetric
  // server2x8 and the many-core manycore4x4 included) and produces sane
  // metrics.
  const std::vector<std::string> platforms =
      PlatformRegistry::instance().names();
  const std::vector<std::string> variants = VariantRegistry::instance().names();
  ASSERT_GE(platforms.size(), 4u);
  ASSERT_GE(variants.size(), 8u);

  SweepSpec spec;
  spec.name("all_platforms_all_variants")
      .base([](ExperimentBuilder& b) { b.duration(20 * kUsPerSec); })
      .platforms(platforms)
      .benchmarks({ParsecBenchmark::kSwaptions})
      .variants(variants);

  TableSink table;
  SweepEngine engine(SweepOptions{.jobs = 2});
  engine.add_sink(table);
  const SweepReport report = engine.run(spec);

  ASSERT_EQ(report.outcomes.size(), platforms.size() * variants.size());
  for (const CaseOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }
  ASSERT_EQ(table.rows().size(), report.outcomes.size());
  for (const Record& row : table.rows()) {
    const std::string where = std::string(row.text("platform")) + " " +
                              std::string(row.text("variant"));
    const RecordCell* power = row.find("avg_power_w");
    ASSERT_NE(power, nullptr) << where;
    EXPECT_TRUE(std::isfinite(power->number)) << where;
    EXPECT_GT(power->number, 0.0) << where;
    const RecordCell* beats = row.find("heartbeats");
    ASSERT_NE(beats, nullptr) << where;
    EXPECT_GT(beats->number, 0.0) << where;
  }
}

TEST(PlatformDiversity, HarsAdaptsOnManycoreAndServer) {
  for (const char* platform : {"manycore4x4", "server2x8"}) {
    const ExperimentResult r = ExperimentBuilder()
                                   .platform(platform)
                                   .app(ParsecBenchmark::kBodytrack)
                                   .variant("HARS-EI")
                                   .target_fraction(0.5)
                                   .duration(30 * kUsPerSec)
                                   .build()
                                   .run();
    EXPECT_GT(r.app().metrics.heartbeats, 0) << platform;
    EXPECT_GT(r.app().metrics.avg_power_w, 0.0) << platform;
    EXPECT_TRUE(std::isfinite(r.app().metrics.perf_per_watt)) << platform;
  }
}

TEST(PlatformDiversity, ConsIKeepsMiddleClustersOnline) {
  // CONS-I's hotplug model controls the fast and slow pools; on an
  // N-cluster machine the middle clusters are outside the model and must
  // stay online under OS-scheduler control.
  bool sampled = false;
  const ExperimentResult r =
      ExperimentBuilder()
          .platform("sd855")
          .app(ParsecBenchmark::kSwaptions)
          .variant("CONS-I")
          .target_fraction(0.5)
          .duration(20 * kUsPerSec)
          .protocol(RunProtocol::kColdStart)
          .sample_every(5 * kUsPerSec,
                        [&sampled](const RunView& view) {
                          const Machine& m = view.engine.machine();
                          CpuMask middle;
                          for (ClusterId c = 0; c < m.num_clusters(); ++c) {
                            if (c != m.fastest_cluster() &&
                                c != m.slowest_cluster()) {
                              middle = middle | m.cluster_mask(c);
                            }
                          }
                          EXPECT_EQ(m.online_mask() & middle, middle);
                          sampled = true;
                        })
          .build()
          .run();
  EXPECT_TRUE(sampled);
  EXPECT_GT(r.app().metrics.heartbeats, 0);
}

TEST(PlatformDiversity, SweepPlatformsAxisExpands) {
  SweepSpec spec;
  spec.platforms({"exynos5422", "sd855"})
      .variants({"Baseline", "HARS-E"});
  const std::vector<SweepCase> cases = spec.expand();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0].label("platform"), "exynos5422");
  EXPECT_EQ(cases[3].label("platform"), "sd855");
  EXPECT_EQ(cases[3].label("variant"), "HARS-E");
}

}  // namespace
}  // namespace hars
