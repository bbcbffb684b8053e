// Differential determinism suite: 200 generated scenarios spread over
// all 8 variants on exynos5422. For every case the optimized path must
// produce a bit-identical result fingerprint to the retained reference
// implementations (run_fuzz_case's differential oracle), with the debug
// invariant audits and AllocGuard armed throughout. A second capture
// pass locks trace byte-identity for generated scenarios.
//
// One TEST per variant so ctest -j runs the suite in parallel; fixed
// seeds keep every case deterministic. Sanitizer builds run a reduced
// grid (same coverage shape, ~10x fewer cases) to stay inside CI time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/variant_registry.hpp"
#include "oracle/fuzz_harness.hpp"
#include "scenario/generator.hpp"
#include "scenario/trace_sink.hpp"

namespace hars {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kScenariosPerVariant = 3;
#else
constexpr int kScenariosPerVariant = 25;  // x8 variants = 200 scenarios.
#endif

/// Fixed per-case generator seed; profile rotates so every variant sees
/// arrivals, rushes, storms, hotplug cascades and retarget bursts.
Scenario generated_case(int variant_index, int case_index) {
  const std::vector<std::string> profiles = ScenarioGenerator::profiles();
  GeneratorSpec spec = ScenarioGenerator::profile(
      profiles[static_cast<std::size_t>(case_index) % profiles.size()]);
  spec.seed = 10'000u + static_cast<std::uint64_t>(variant_index) * 1000u +
              static_cast<std::uint64_t>(case_index);
  spec.horizon_s = 4.0;
  return ScenarioGenerator(spec).generate();
}

void run_variant_suite(const std::string& variant) {
  const std::vector<std::string> variants = VariantRegistry::instance().names();
  const int variant_index = static_cast<int>(
      std::find(variants.begin(), variants.end(), variant) - variants.begin());
  ASSERT_LT(variant_index, static_cast<int>(variants.size()))
      << "unknown variant " << variant;
  for (int i = 0; i < kScenariosPerVariant; ++i) {
    ReproCase repro;
    repro.scenario = generated_case(variant_index, i);
    repro.variant = variant;
    repro.platform = "exynos5422";
    repro.seed = 1;  // One experiment seed: calibration cache stays hot.
    repro.duration_sec = 4.0;
    const FuzzCaseResult outcome = run_fuzz_case(repro, /*differential=*/true);
    EXPECT_FALSE(outcome.failed)
        << variant << " case " << i << " (" << repro.scenario.name
        << "): " << outcome.message;
  }
}

TEST(DifferentialFuzz, Baseline) { run_variant_suite("Baseline"); }
TEST(DifferentialFuzz, StaticOptimal) { run_variant_suite("SO"); }
TEST(DifferentialFuzz, HarsI) { run_variant_suite("HARS-I"); }
TEST(DifferentialFuzz, HarsE) { run_variant_suite("HARS-E"); }
TEST(DifferentialFuzz, HarsEI) { run_variant_suite("HARS-EI"); }
TEST(DifferentialFuzz, ConsI) { run_variant_suite("CONS-I"); }
TEST(DifferentialFuzz, MpHarsI) { run_variant_suite("MP-HARS-I"); }
TEST(DifferentialFuzz, MpHarsE) { run_variant_suite("MP-HARS-E"); }

TEST(DifferentialFuzz, SuiteCoversEveryRegisteredVariant) {
  // If a ninth variant is ever registered, this fails until the suite
  // above grows a case for it.
  EXPECT_EQ(VariantRegistry::instance().names().size(), 8u);
}

/// Replayed traces of generated scenarios are byte-identical: capture
/// twice (bytes equal) and verify through the replay checker.
TEST(DifferentialFuzz, GeneratedScenarioTracesReplayBitIdentically) {
  const std::vector<std::string> variants{"Baseline", "HARS-E", "CONS-I",
                                          "MP-HARS-E"};
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const Scenario scenario = generated_case(static_cast<int>(v), 3);
    const auto capture = [&]() {
      TraceSink sink(/*sample_every_ticks=*/100);
      ExperimentBuilder builder;
      builder.scenario(scenario)
          .variant(variants[v])
          .duration(4 * kUsPerSec)
          .seed(1)
          .audit(true)
          .capture(sink);
      (void)builder.build().run();
      return sink.bytes();
    };
    const std::string first = capture();
    ASSERT_FALSE(first.empty()) << variants[v];
    EXPECT_EQ(first, capture()) << variants[v];
    const ReplayOutcome outcome = replay_trace(first);
    EXPECT_TRUE(outcome.ok) << variants[v] << ": " << outcome.message;
  }
}

}  // namespace
}  // namespace hars
