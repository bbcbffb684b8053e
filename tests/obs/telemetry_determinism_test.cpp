// The telemetry contract's load-bearing clause: enabling the metrics
// registry, tick timers and span collector must not perturb a single
// simulated bit. Every registered variant is run on both platform
// presets — plus a dynamic-scenario run — with telemetry off and on,
// and the full result (metrics, traces, states) must compare equal as
// raw doubles, not within a tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
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
#include "util/json.hpp"

namespace hars {
namespace {

/// Telemetry armed with every collection mechanism live but no file
/// sinks — the point is the simulation, not the output.
obs::TelemetryConfig armed() {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
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
  // and assign counters must still advance once per simulated tick, and
  // run_until's timers must cover every tick: one engine.step_ns per
  // step() and one traced quiet_span per span, with the span ticks adding
  // up to engine.quiet_ticks.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() /
       ("hars_quiet_span_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  obs::TelemetryConfig cfg = armed();
  cfg.trace_json = trace_path;
  obs::TelemetrySession session(cfg);
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

  const obs::MetricValue* step_ns = snap.find("engine.step_ns");
  ASSERT_NE(step_ns, nullptr);
  EXPECT_EQ(step_ns->count,
            ticks - static_cast<std::uint64_t>(engine.quiet_ticks()));
  const obs::MetricValue* quiet_tick_ns = snap.find("engine.quiet_tick_ns");
  ASSERT_NE(quiet_tick_ns, nullptr);
  EXPECT_GT(quiet_tick_ns->count, 0u);

  const obs::MetricValue* dropped = snap.find("obs.spans_dropped");
  ASSERT_NE(dropped, nullptr);
  ASSERT_EQ(dropped->gauge, 0.0) << "span ring overflowed; sum is partial";
  const json::Value trace = json::parse_file(trace_path);
  std::filesystem::remove(trace_path);
  std::int64_t span_ticks = 0;
  std::uint64_t quiet_spans = 0;
  std::uint64_t steps = 0;
  for (const json::Value& e : trace.at("traceEvents").as_array()) {
    const std::string name = e.at("name").as_string();
    if (name == "quiet_span") {
      ++quiet_spans;
      span_ticks += static_cast<std::int64_t>(
          e.at("args").at("ticks").as_number());
    } else if (name == "step") {
      ++steps;
    }
  }
  EXPECT_EQ(span_ticks, engine.quiet_ticks());
  EXPECT_EQ(quiet_spans, quiet_tick_ns->count);
  EXPECT_EQ(steps, step_ns->count);
}

}  // namespace
}  // namespace hars
