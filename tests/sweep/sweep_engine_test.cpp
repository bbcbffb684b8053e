// The sweep engine's determinism contract: the same SweepSpec run with 1
// worker and with N workers produces bit-identical per-case RunMetrics
// and byte-identical sink output (record order included).
#include "sweep/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sweep/aggregator.hpp"
#include "util/fan_out.hpp"

namespace hars {
namespace {

/// Small, calibration-free campaign: explicit targets and cold-start
/// protocol keep each case to one short simulation.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.name("engine_test")
      .base([](ExperimentBuilder& b) {
        b.protocol(RunProtocol::kColdStart).duration(5 * kUsPerSec);
      })
      .benchmarks({ParsecBenchmark::kSwaptions, ParsecBenchmark::kBodytrack})
      .variants({"Baseline", "HARS-E"})
      .axis("target", {AxisPoint("2hps", [](ExperimentBuilder& b) {
               b.target(PerfTarget::around(2.0));
             })});
  return spec;
}

void expect_metrics_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.norm_perf, b.norm_perf);
  EXPECT_EQ(a.avg_rate_hps, b.avg_rate_hps);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.perf_per_watt, b.perf_per_watt);
  EXPECT_EQ(a.manager_cpu_pct, b.manager_cpu_pct);
  EXPECT_EQ(a.heartbeats, b.heartbeats);
  EXPECT_EQ(a.in_window_fraction, b.in_window_fraction);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.energy_per_beat_j, b.energy_per_beat_j);
}

std::string csv_of(const SweepReport& report) {
  std::ostringstream out;
  CsvSink csv(out);
  for (const CaseOutcome& outcome : report.outcomes) {
    for (const Record& record : outcome.records) csv.write(record);
  }
  return out.str();
}

TEST(SweepEngine, SerialAndParallelRunsAreBitIdentical) {
  const SweepSpec spec = small_spec();

  SweepEngine serial(SweepOptions{.jobs = 1});
  const SweepReport a = serial.run(spec);

  SweepEngine parallel(SweepOptions{.jobs = 4});
  const SweepReport b = parallel.run(spec);

  ASSERT_EQ(a.outcomes.size(), 4u);
  ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_TRUE(a.outcomes[i].ok()) << a.outcomes[i].error;
    ASSERT_TRUE(b.outcomes[i].ok()) << b.outcomes[i].error;
    ASSERT_EQ(a.outcomes[i].result.apps.size(),
              b.outcomes[i].result.apps.size());
    for (std::size_t app = 0; app < a.outcomes[i].result.apps.size(); ++app) {
      expect_metrics_identical(a.outcomes[i].result.apps[app].metrics,
                               b.outcomes[i].result.apps[app].metrics);
    }
  }
  EXPECT_EQ(csv_of(a), csv_of(b));
}

TEST(SweepEngine, DerivedSeedsAreSchedulingIndependent) {
  SweepSpec spec = small_spec();
  spec.seed_mode(SeedMode::kDerived).base_seed(99);

  SweepEngine serial(SweepOptions{.jobs = 1});
  SweepEngine parallel(SweepOptions{.jobs = 3});
  const SweepReport a = serial.run(spec);
  const SweepReport b = parallel.run(spec);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(csv_of(a), csv_of(b));
  // Every record carries the coordinate-derived seed column.
  for (const CaseOutcome& outcome : a.outcomes) {
    ASSERT_FALSE(outcome.records.empty());
    EXPECT_EQ(outcome.records[0].text("seed"),
              std::to_string(outcome.sweep_case.seed));
  }
}

TEST(SweepEngine, SinksReceiveRecordsInCaseOrder) {
  const SweepSpec spec = small_spec();
  TableSink sink;
  SweepEngine engine(SweepOptions{.jobs = 4});
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  ASSERT_EQ(report.outcomes.size(), 4u);
  ASSERT_EQ(sink.rows().size(), 4u);  // One app per case.
  for (std::size_t i = 0; i < sink.rows().size(); ++i) {
    EXPECT_DOUBLE_EQ(sink.rows()[i].number("case"), static_cast<double>(i));
  }
}

TEST(SweepEngine, RecordsCarryCoordinatesAndMetrics) {
  const SweepSpec spec = small_spec();
  SweepEngine engine(SweepOptions{.jobs = 1});
  const SweepReport report = engine.run(spec);
  const Record& first = report.outcomes[0].records.at(0);
  EXPECT_EQ(first.text("bench"), "SW");
  EXPECT_EQ(first.text("variant"), "Baseline");
  EXPECT_EQ(first.text("app"), "SW");
  EXPECT_GT(first.number("avg_rate_hps"), 0.0);
  EXPECT_GT(first.number("avg_power_w"), 0.0);
}

TEST(SweepEngine, CustomRunnerRowsGetCoordinatePrefix) {
  SweepSpec spec;
  spec.values("x", {2.0, 3.0}, nullptr).case_runner([](const SweepCase& c) {
    Record r;
    r.set("square", c.number("x") * c.number("x"));
    return std::vector<Record>{r};
  });
  TableSink sink;
  SweepEngine engine(SweepOptions{.jobs = 2});
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.rows()[0].number("x"), 2.0);
  EXPECT_DOUBLE_EQ(sink.rows()[0].number("square"), 4.0);
  EXPECT_DOUBLE_EQ(sink.rows()[1].number("square"), 9.0);
}

TEST(SweepEngine, SetUpFanOutsInCasesRunInlineBesideJobs) {
  // Each case fans out as a scenario's set-up does. With --jobs 2 the
  // engine starts its one helper, and no case's fan-out starts another.
  // The cases last long enough that the caller runs some of them too.
  SweepSpec spec;
  spec.values("x", {1.0, 2.0, 3.0, 4.0}, nullptr)
      .case_runner([](const SweepCase& c) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::vector<double> parts(4);
        fan_out_each(4, [&](std::size_t i) {
          parts[i] = c.number("x") * static_cast<double>(i + 1);
        });
        Record r;
        r.set("sum", parts[0] + parts[1] + parts[2] + parts[3]);
        return std::vector<Record>{r};
      });
  SweepEngine serial(SweepOptions{.jobs = 1});
  const SweepReport a = serial.run(spec);

  const std::size_t started = fan_out_threads_started();
  SweepEngine parallel(SweepOptions{.jobs = 2});
  const SweepReport b = parallel.run(spec);
  EXPECT_EQ(fan_out_threads_started() - started, 1u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(csv_of(b), csv_of(a));
}

TEST(SweepEngine, CaseFailureIsCapturedNotFatal) {
  SweepSpec spec;
  spec.values("x", {1.0, 2.0}, nullptr).case_runner([](const SweepCase& c) {
    if (c.number("x") == 1.0) throw std::runtime_error("boom");
    Record r;
    r.set("ok", 1.0);
    return std::vector<Record>{r};
  });
  TableSink sink;
  SweepEngine engine(SweepOptions{.jobs = 2});
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.outcomes[0].error, "boom");
  EXPECT_TRUE(report.outcomes[1].ok());
  ASSERT_EQ(sink.rows().size(), 1u);  // Failed case emits nothing.
  EXPECT_DOUBLE_EQ(sink.rows()[0].number("x"), 2.0);
}

TEST(SweepEngine, InvalidExperimentConfigSurfacesAsCaseError) {
  SweepSpec spec;
  spec.variants({"NoSuchVariant"});  // No app either — build() throws.
  SweepEngine engine(SweepOptions{.jobs = 1});
  const SweepReport report = engine.run(spec);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.outcomes[0].error.empty());
}

TEST(SweepEngine, AggregatorOverEngineRecords) {
  const SweepSpec spec = small_spec();
  TableSink sink;
  SweepEngine engine(SweepOptions{.jobs = 2});
  engine.add_sink(sink);
  engine.run(spec);
  Aggregator agg;
  agg.group_by({"variant"}).geomean("avg_rate_hps");
  const std::vector<Record> out = agg.apply(sink.rows());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].text("variant"), "Baseline");
  EXPECT_DOUBLE_EQ(out[0].number("rows"), 2.0);
  EXPECT_GT(out[0].number("geomean_avg_rate_hps"), 0.0);
}

}  // namespace
}  // namespace hars
