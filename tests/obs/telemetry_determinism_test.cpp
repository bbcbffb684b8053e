// The telemetry contract's load-bearing clause: enabling the metrics
// registry, phase timers and span collector must not perturb a single
// simulated bit. Every registered variant is run on both platform
// presets — plus a dynamic-scenario run — with telemetry off and on,
// and the full result (metrics, traces, states) must compare equal as
// raw doubles, not within a tolerance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/parsec.hpp"
#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "obs/telemetry.hpp"
#include "oracle/fuzz_harness.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

/// Telemetry armed with every collection mechanism live but no file
/// sinks — the point is the simulation, not the output.
obs::TelemetryConfig armed() {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.phase_sample_shift = 0;  // Time every tick: maximum interference.
  return cfg;
}

TEST(TelemetryDeterminism, EveryVariantOnEveryPlatformIsBitIdentical) {
  const std::vector<std::string> variants =
      VariantRegistry::instance().names();
  ASSERT_GE(variants.size(), 8u);
  for (const char* platform : {"exynos5422", "sd855"}) {
    for (const std::string& variant : variants) {
      const auto make = [&](bool telemetry) {
        ExperimentBuilder b;
        b.platform(std::string_view(platform))
            .app(ParsecBenchmark::kSwaptions)
            .variant(variant)
            .protocol(RunProtocol::kColdStart)
            .duration(4 * kUsPerSec)
            .seed(7);
        if (telemetry) b.telemetry(armed());
        return b.build().run();
      };
      const std::string off = result_fingerprint(make(false));
      const std::string on = result_fingerprint(make(true));
      const std::string off_again = result_fingerprint(make(false));
      EXPECT_EQ(off, on) << variant << " on " << platform
                         << ": telemetry changed the simulation";
      EXPECT_EQ(off, off_again)
          << variant << " on " << platform << ": run is not deterministic";
    }
  }
}

TEST(TelemetryDeterminism, StaggeredScenarioIsBitIdentical) {
  const auto make = [&](bool telemetry) {
    ExperimentBuilder b;
    b.scenario(std::string_view("staggered"))
        .variant("HARS-E")
        .duration(40 * kUsPerSec)
        .seed(3);
    if (telemetry) b.telemetry(armed());
    return b.build().run();
  };
  const std::string off = result_fingerprint(make(false));
  const std::string on = result_fingerprint(make(true));
  EXPECT_EQ(off, on) << "telemetry changed the staggered scenario run";
}

TEST(TelemetryDeterminism, QuietSpanTicksAreCounted) {
  // Quiet spans run many ticks per loop and elide GTS assign(); the tick
  // and assign counters must still advance once per simulated tick.
  obs::TelemetrySession session(armed());
  SimEngine engine(*PlatformRegistry::instance().find("exynos5422"),
                   std::make_unique<GtsScheduler>());
  const std::unique_ptr<App> app =
      make_parsec_app(ParsecBenchmark::kSwaptions, 8, 1);
  engine.add_app(app.get());
  engine.run_for(20 * kUsPerSec);
  session.finish();

  const auto ticks = static_cast<std::uint64_t>(engine.now() / engine.tick_us());
  ASSERT_GT(engine.quiet_ticks(), 0) << "the run took no quiet span";
  const obs::MetricsSnapshot& snap = session.snapshot();
  ASSERT_NE(snap.find("engine.ticks"), nullptr);
  EXPECT_EQ(snap.find("engine.ticks")->counter, ticks);
  EXPECT_EQ(snap.find("engine.quiet_ticks")->counter,
            static_cast<std::uint64_t>(engine.quiet_ticks()));
  EXPECT_EQ(snap.find("sched.gts.assign_calls")->counter, ticks);
  EXPECT_LE(snap.find("sched.gts.assign_skips")->counter, ticks);
  EXPECT_GE(snap.find("sched.gts.assign_skips")->counter,
            static_cast<std::uint64_t>(engine.quiet_ticks()));
  EXPECT_EQ(snap.find("engine.tick_alloc_violations")->counter, 0u);
}

}  // namespace
}  // namespace hars
