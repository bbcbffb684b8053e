// The telemetry contract's load-bearing clause: enabling the metrics
// registry, tick timers and span collector must not perturb a single
// simulated bit. Every registered variant is run on both platform
// presets — plus a dynamic-scenario run — with telemetry off and on,
// and the full result (metrics, traces, states) must compare equal as
// raw doubles, not within a tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
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

/// GTS behind a decorator that counts the assign() calls reaching it,
/// the ones among them GTS skips (its fixed-point predicate holds on
/// entry) and the calls the engine elides.
class CountingGts final : public Scheduler {
 public:
  void assign(const Machine& machine, std::vector<SimThread>& threads) override {
    ++calls;
    if (gts_.placement_fixed_point(machine, threads)) ++skips;
    gts_.assign(machine, threads);
  }
  const std::vector<int>* runnable_per_core() const override {
    return gts_.runnable_per_core();
  }
  bool placement_fixed_point(const Machine& machine,
                             const std::vector<SimThread>& threads) const override {
    return gts_.placement_fixed_point(machine, threads);
  }
  bool load_bounds(const std::vector<SimThread>& threads, double* lo,
                   double* hi) const override {
    return gts_.load_bounds(threads, lo, hi);
  }
  void note_elided_assigns(std::int64_t ticks) override {
    elided += ticks;
    gts_.note_elided_assigns(ticks);
  }
  const char* name() const override { return gts_.name(); }

  std::int64_t calls = 0;
  std::int64_t skips = 0;
  std::int64_t elided = 0;

 private:
  GtsScheduler gts_;
};

TEST(TelemetryDeterminism, QuietSpanTicksAreCounted) {
  // Quiet spans run many ticks per loop and elide GTS assign() on most of
  // them; a span tick whose thread retired, or whose load left its bound,
  // calls assign() itself. On a run shaped like a calibration the tick
  // and assign counters must still advance once per simulated tick, the
  // skip counter must count exactly the elided calls and the calls GTS
  // skipped, and run_until's timers must cover every tick: one
  // engine.step_ns per tick step() finished and one traced quiet_span per
  // span, with the span ticks adding up to engine.quiet_ticks.
  const std::string trace_path =
      (std::filesystem::temp_directory_path() /
       ("hars_quiet_span_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  obs::TelemetryConfig cfg = armed();
  cfg.trace_json = trace_path;
  obs::TelemetrySession session(cfg);
  auto counting = std::make_unique<CountingGts>();
  const CountingGts& gts = *counting;
  SimEngine engine(*PlatformRegistry::instance().find("exynos5422"),
                   std::move(counting));
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
  EXPECT_EQ(static_cast<std::uint64_t>(gts.calls + gts.elided), ticks);
  EXPECT_EQ(snap.find("sched.gts.assign_skips")->counter,
            static_cast<std::uint64_t>(gts.skips + gts.elided));
  // Spans called assign() themselves, and elided it on most span ticks.
  EXPECT_GT(static_cast<std::uint64_t>(gts.calls),
            ticks - static_cast<std::uint64_t>(engine.quiet_ticks()));
  EXPECT_LT(gts.elided, engine.quiet_ticks());
  EXPECT_GT(gts.elided, engine.quiet_ticks() * 9 / 10);
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

/// A manager-less GTS run shaped like a calibration (calibrate_benchmark):
/// one PARSEC app alone, run in 100 ms slices until its first heartbeat,
/// then for 40 s. Returns everything the run left, exactly (doubles as
/// hex floats). With telemetry armed it also checks the tick, assign and
/// step-timer counters against the ticks the run took.
std::string run_calibration_shaped(ParsecBenchmark bench, bool telemetry) {
  std::unique_ptr<obs::TelemetrySession> session;
  if (telemetry) session = std::make_unique<obs::TelemetrySession>(armed());
  auto counting = std::make_unique<CountingGts>();
  const CountingGts& gts = *counting;
  SimEngine engine(*PlatformRegistry::instance().find("sd855"),
                   std::move(counting));
  const std::unique_ptr<App> app = make_parsec_app(bench, 8, 1);
  engine.add_app(app.get());
  while (app->heartbeats().count() == 0 && engine.now() < 60 * kUsPerSec) {
    engine.run_for(100 * kUsPerMs);
  }
  engine.run_for(40 * kUsPerSec);

  const auto ticks = static_cast<std::uint64_t>(engine.now() / engine.tick_us());
  EXPECT_GT(engine.quiet_ticks(), 0) << "the run took no quiet span";
  EXPECT_EQ(static_cast<std::uint64_t>(gts.calls + gts.elided), ticks);
  if (session != nullptr) {
    session->finish();
    const obs::MetricsSnapshot& snap = session->snapshot();
    EXPECT_EQ(snap.find("engine.ticks")->counter, ticks);
    EXPECT_EQ(snap.find("sched.gts.assign_calls")->counter, ticks);
    EXPECT_EQ(snap.find("sched.gts.assign_skips")->counter,
              static_cast<std::uint64_t>(gts.skips + gts.elided));
    EXPECT_EQ(snap.find("engine.step_ns")->count,
              ticks - static_cast<std::uint64_t>(engine.quiet_ticks()));
    EXPECT_EQ(snap.find("engine.tick_alloc_violations")->counter, 0u);
  }

  std::string out;
  char buf[128];
  for (const HeartbeatRecord& beat : app->heartbeats().history()) {
    std::snprintf(buf, sizeof buf, "beat %lld\n",
                  static_cast<long long>(beat.time));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "now=%lld energy=%a\n",
                static_cast<long long>(engine.now()),
                engine.sensor().total_energy_j());
  out += buf;
  for (CoreId c = 0; c < engine.machine().num_cores(); ++c) {
    std::snprintf(buf, sizeof buf, "core%d busy=%a\n", c,
                  engine.core_busy_fraction(c));
    out += buf;
  }
  for (const SimThread& t : engine.threads()) {
    std::snprintf(buf, sizeof buf,
                  "thread%lld cpu=%lld load=%a core=%d migrations=%lld\n",
                  static_cast<long long>(t.id),
                  static_cast<long long>(t.cpu_time_us), t.load.value(),
                  t.core, static_cast<long long>(t.migrations));
    out += buf;
  }
  return out;
}

TEST(TelemetryDeterminism, CalibrationShapedRunsAreBitIdentical) {
  // Calibrations run most ticks in quiet spans whose threads retire and
  // whose heads call assign(); ferret's item hand-offs and blackscholes'
  // serial warm-up end spans on a tick whose head already ran, which
  // run_until must finish once, telemetry or not.
  for (const ParsecBenchmark bench :
       {ParsecBenchmark::kFerret, ParsecBenchmark::kBlackscholes}) {
    SCOPED_TRACE(parsec_code(bench));
    const std::string off = run_calibration_shaped(bench, false);
    const std::string on = run_calibration_shaped(bench, true);
    EXPECT_EQ(off, on) << "telemetry changed the calibration-shaped run";
  }
}

}  // namespace
}  // namespace hars
