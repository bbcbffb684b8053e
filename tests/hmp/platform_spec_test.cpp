// PlatformSpec: builder round-trips, validation errors and the Machine
// perf-ranked capability API the spec materializes into.
#include "hmp/platform_spec.hpp"

#include <gtest/gtest.h>

namespace hars {
namespace {

PlatformSpec tri_cluster() {
  return PlatformBuilder()
      .name("tri")
      .cluster(CoreType::kLittle, 4, 2.0)
      .freqs_ghz({0.6, 0.9, 1.2})
      .cluster(CoreType::kBig, 3, 3.0)
      .freqs_ghz({0.8, 1.6, 2.4})
      .cluster(CoreType::kBig, 1, 3.5)
      .freqs_ghz({1.0, 2.0, 2.8})
      .base_watts(0.9)
      .build();
}

TEST(PlatformSpec, BuilderRoundTrip) {
  const PlatformSpec spec = tri_cluster();
  EXPECT_EQ(spec.name, "tri");
  ASSERT_EQ(spec.clusters.size(), 3u);
  EXPECT_EQ(spec.clusters[0].topology.core_count, 4);
  EXPECT_EQ(spec.clusters[2].topology.ipc, 3.5);
  EXPECT_EQ(spec.base_watts, 0.9);
  // Builder attaches the legacy per-type power defaults.
  EXPECT_EQ(spec.clusters[0].power.c_dyn, PowerParams::cortex_a7().c_dyn);
  EXPECT_EQ(spec.clusters[1].power.c_dyn, PowerParams::cortex_a15().c_dyn);
}

TEST(PlatformSpec, ValidationErrors) {
  EXPECT_THROW(PlatformBuilder().name("x").build(), PlatformConfigError);

  // Single-cluster platforms cannot form distinct fast/slow pools.
  PlatformBuilder one_cluster;
  one_cluster.name("mono").cluster(CoreType::kBig, 4, 3.0).freqs_ghz({1.0});
  EXPECT_THROW(one_cluster.build(), PlatformConfigError);

  PlatformSpec no_name = tri_cluster();
  no_name.name.clear();
  EXPECT_THROW(no_name.validate(), PlatformConfigError);

  PlatformSpec empty_ladder = tri_cluster();
  empty_ladder.clusters[1].topology.freqs_ghz.clear();
  EXPECT_THROW(empty_ladder.validate(), PlatformConfigError);

  PlatformSpec non_ascending = tri_cluster();
  non_ascending.clusters[0].topology.freqs_ghz = {1.2, 0.9, 0.6};
  EXPECT_THROW(non_ascending.validate(), PlatformConfigError);

  PlatformSpec duplicate_level = tri_cluster();
  duplicate_level.clusters[0].topology.freqs_ghz = {0.6, 0.6, 1.2};
  EXPECT_THROW(duplicate_level.validate(), PlatformConfigError);

  PlatformSpec bad_ipc = tri_cluster();
  bad_ipc.clusters[2].topology.ipc = 0.0;
  EXPECT_THROW(bad_ipc.validate(), PlatformConfigError);

  PlatformSpec bad_cores = tri_cluster();
  bad_cores.clusters[0].topology.core_count = 0;
  EXPECT_THROW(bad_cores.validate(), PlatformConfigError);

  PlatformSpec bad_power = tri_cluster();
  bad_power.clusters[0].power.c_dyn = -0.1;
  EXPECT_THROW(bad_power.validate(), PlatformConfigError);

  PlatformSpec too_many = tri_cluster();
  too_many.clusters[0].topology.core_count = 1000;
  EXPECT_THROW(too_many.validate(), PlatformConfigError);
}

TEST(PlatformSpec, AssumedRatioDerivesFromExtremeClusters) {
  // fastest = prime (ipc 3.5), slowest = little (ipc 2.0).
  EXPECT_DOUBLE_EQ(tri_cluster().assumed_ratio(), 3.5 / 2.0);

  PlatformSpec pinned = tri_cluster();
  pinned.default_r0 = 1.25;
  EXPECT_DOUBLE_EQ(pinned.assumed_ratio(), 1.25);
}

TEST(PlatformSpec, MakeMachinePerfRanking) {
  const Machine m = tri_cluster().make_machine();
  EXPECT_EQ(m.num_clusters(), 3);
  EXPECT_EQ(m.num_cores(), 8);
  // Peak speeds: little 2*1.2=2.4, big 3*2.4=7.2, prime 3.5*2.8=9.8.
  EXPECT_EQ(m.fastest_cluster(), 2);
  EXPECT_EQ(m.slowest_cluster(), 0);
  const std::vector<ClusterId> order = m.clusters_by_perf();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
  EXPECT_EQ(m.fastest_mask(), CpuMask::range(7, 1));
  EXPECT_EQ(m.slowest_mask(), CpuMask::range(0, 4));
}

TEST(PlatformSpec, SymmetricMachineTiesTowardLowerCluster) {
  const PlatformSpec spec = PlatformBuilder()
                                .name("sym")
                                .cluster(CoreType::kBig, 2, 4.0)
                                .freqs_ghz({1.0, 2.0})
                                .cluster(CoreType::kBig, 2, 4.0)
                                .freqs_ghz({1.0, 2.0})
                                .build();
  const Machine m = spec.make_machine();
  EXPECT_EQ(m.fastest_cluster(), 0);
  EXPECT_EQ(m.slowest_cluster(), 1);
  EXPECT_DOUBLE_EQ(spec.assumed_ratio(), 1.0);
}

TEST(PlatformSpec, RejectsLittleOutPeakingBig) {
  // The execution model keys per-core speed on CoreType, so a little
  // cluster faster than a big one would invert the perf-ranked pools.
  PlatformBuilder inverted;
  inverted.name("inverted")
      .cluster(CoreType::kBig, 2, 2.0)
      .freqs_ghz({1.0, 1.5})  // peak 3.0
      .cluster(CoreType::kLittle, 4, 3.0)
      .freqs_ghz({1.0, 2.0});  // peak 6.0 > 3.0
  EXPECT_THROW(inverted.build(), PlatformConfigError);

  // An exact cross-type tie is rejected too: the index tie-break could
  // rank the little cluster as the fastest pool.
  PlatformBuilder equal;
  equal.name("equal")
      .cluster(CoreType::kLittle, 4, 3.0)
      .freqs_ghz({1.0, 2.0})  // peak 6.0
      .cluster(CoreType::kBig, 2, 3.0)
      .freqs_ghz({1.0, 2.0});  // peak 6.0
  EXPECT_THROW(equal.build(), PlatformConfigError);

  // Strictly faster big clusters are fine.
  PlatformBuilder ordered;
  ordered.name("ordered")
      .cluster(CoreType::kLittle, 4, 2.0)
      .freqs_ghz({1.0, 2.0})  // peak 4.0
      .cluster(CoreType::kBig, 2, 3.0)
      .freqs_ghz({1.0, 2.0});  // peak 6.0
  EXPECT_NO_THROW(ordered.build());
}

TEST(PlatformSpec, AssumedRatioMatchesMaterializedPoolsOnTies) {
  // Equal peak speeds, different ipc: the ratio must be computed from the
  // same (fastest, slowest) pair the materialized Machine assigns.
  const PlatformSpec spec = PlatformBuilder()
                                .name("tie")
                                .cluster(CoreType::kBig, 2, 2.0)
                                .freqs_ghz({1.5})  // peak 3.0
                                .cluster(CoreType::kBig, 2, 3.0)
                                .freqs_ghz({1.0})  // peak 3.0
                                .build();
  const Machine m = spec.make_machine();
  EXPECT_EQ(m.fastest_cluster(), 0);
  EXPECT_EQ(m.slowest_cluster(), 1);
  const double fast_ipc =
      spec.clusters[static_cast<std::size_t>(m.fastest_cluster())].topology.ipc;
  const double slow_ipc =
      spec.clusters[static_cast<std::size_t>(m.slowest_cluster())].topology.ipc;
  EXPECT_DOUBLE_EQ(spec.assumed_ratio(), fast_ipc / slow_ipc);
}

TEST(PlatformSpec, FromMachineWrapsLegacyDefaults) {
  const PlatformSpec spec = PlatformSpec::from_machine(Machine::exynos5422());
  EXPECT_EQ(spec.name, "exynos5422");
  ASSERT_EQ(spec.clusters.size(), 2u);
  EXPECT_EQ(spec.clusters[0].power.c_dyn, PowerParams::cortex_a7().c_dyn);
  EXPECT_EQ(spec.clusters[1].power.c_dyn, PowerParams::cortex_a15().c_dyn);
  EXPECT_EQ(spec.base_watts, 0.7);
  EXPECT_DOUBLE_EQ(spec.assumed_ratio(), 1.5);  // The paper's r0.
}

TEST(PlatformSpec, SignatureDistinguishesContent) {
  const PlatformSpec a = tri_cluster();
  PlatformSpec b = tri_cluster();
  EXPECT_EQ(a.signature(), b.signature());
  b.clusters[0].power.c_mem += 0.01;
  EXPECT_NE(a.signature(), b.signature());
  PlatformSpec c = tri_cluster();
  c.base_watts += 0.1;
  EXPECT_NE(a.signature(), c.signature());
}

}  // namespace
}  // namespace hars
