// One instrumented run must produce all four sink formats, and each
// must be well-formed: JSONL (one valid object per line), CSV (header +
// one row per metric), Prometheus text format, and a Chrome trace-event
// file that chrome://tracing / Perfetto would accept. JSON outputs are
// validated with the real parser, not by substring probing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "exp/experiment.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace hars {
namespace {

class SinksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hars_sinks_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(SinksTest, OneRunProducesAllFourFormats) {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.metrics_jsonl = path("metrics.jsonl");
  cfg.metrics_csv = path("metrics.csv");
  cfg.prometheus = path("metrics.prom");
  cfg.trace_json = path("spans.json");

  ExperimentBuilder()
      .app(ParsecBenchmark::kSwaptions)
      .variant("HARS-E")
      .protocol(RunProtocol::kColdStart)
      .duration(4 * kUsPerSec)
      .telemetry(cfg)
      .build()
      .run();

  // --- JSONL: every line parses; engine.ticks is present and counted.
  {
    std::ifstream in(cfg.metrics_jsonl);
    ASSERT_TRUE(in.good());
    std::string line;
    std::set<std::string> names;
    int lines = 0;
    while (std::getline(in, line)) {
      ++lines;
      const json::Value v = json::parse(line);
      ASSERT_EQ(v.type(), json::Value::Type::kObject) << line;
      const std::string name = v.at("name").as_string();
      EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
      const std::string kind = v.at("kind").as_string();
      if (kind == "histogram") {
        const json::Value& buckets = v.at("buckets");
        ASSERT_EQ(buckets.type(), json::Value::Type::kArray);
        ASSERT_FALSE(buckets.as_array().empty());
        // Last bucket is the +Inf catch-all, encoded as a string.
        EXPECT_EQ(buckets.as_array().back().at("le").as_string(), "+Inf");
      } else {
        EXPECT_TRUE(kind == "counter" || kind == "gauge") << kind;
      }
    }
    EXPECT_GT(lines, 10);
    EXPECT_TRUE(names.count("engine.ticks"));
    EXPECT_TRUE(names.count("engine.step_ns"));
    EXPECT_TRUE(names.count("engine.quiet_tick_ns"));
    EXPECT_TRUE(names.count("obs.spans_dropped"));
    EXPECT_TRUE(names.count("search.calls"));
    EXPECT_TRUE(names.count("alloc.thread_total"));
  }

  // --- CSV: header + same metric set, one row each.
  {
    const std::string csv = slurp(cfg.metrics_csv);
    ASSERT_FALSE(csv.empty());
    std::istringstream in(csv);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "name,kind,value,count,sum,p50,p90,p99");
    std::string row;
    bool saw_ticks = false;
    while (std::getline(in, row)) {
      if (row.rfind("engine.ticks,counter,", 0) == 0) saw_ticks = true;
    }
    EXPECT_TRUE(saw_ticks);
  }

  // --- Prometheus: HELP/TYPE preamble per metric, sanitized names,
  //     cumulative histogram series with _sum/_count.
  {
    const std::string prom = slurp(cfg.prometheus);
    EXPECT_NE(prom.find("# TYPE hars_engine_ticks counter"),
              std::string::npos);
    for (const char* hist : {"hars_engine_step_ns", "hars_engine_quiet_tick_ns"}) {
      const std::string name(hist);
      EXPECT_NE(prom.find("# TYPE " + name + " histogram"), std::string::npos)
          << name;
      EXPECT_NE(prom.find(name + "_bucket{le=\"+Inf\"}"), std::string::npos)
          << name;
      EXPECT_NE(prom.find(name + "_count"), std::string::npos) << name;
      EXPECT_NE(prom.find(name + "_sum"), std::string::npos) << name;
    }
  }

  // --- Chrome trace: top-level object with a traceEvents array of
  //     complete ("ph":"X") events carrying name/cat/ts/dur/pid/tid:
  //     one "step" span per step() tick and one "quiet_span" per span,
  //     the latter with its tick count in args.
  {
    const json::Value trace = json::parse_file(cfg.trace_json);
    ASSERT_EQ(trace.type(), json::Value::Type::kObject);
    const json::Value& events = trace.at("traceEvents");
    ASSERT_EQ(events.type(), json::Value::Type::kArray);
    ASSERT_FALSE(events.as_array().empty());
    std::set<std::string> span_names;
    for (const json::Value& e : events.as_array()) {
      EXPECT_EQ(e.at("ph").as_string(), "X");
      const std::string name = e.at("name").as_string();
      span_names.insert(name);
      if (name == "quiet_span") {
        EXPECT_GT(e.at("args").at("ticks").as_number(), 0.0);
      }
      EXPECT_EQ(e.at("cat").as_string(), "tick");
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      (void)e.at("ts").as_number();
      (void)e.at("pid").as_number();
      (void)e.at("tid").as_number();
    }
    EXPECT_EQ(span_names, (std::set<std::string>{"step", "quiet_span"}));
  }
}

TEST_F(SinksTest, UnwritablePathIsReportedNotFatal) {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.metrics_jsonl = "/nonexistent-dir/metrics.jsonl";
  // Must not throw: telemetry I/O failures never change a run's outcome.
  const ExperimentResult r = ExperimentBuilder()
                                 .app(ParsecBenchmark::kSwaptions)
                                 .variant("Baseline")
                                 .protocol(RunProtocol::kColdStart)
                                 .duration(2 * kUsPerSec)
                                 .telemetry(cfg)
                                 .build()
                                 .run();
  EXPECT_FALSE(r.apps.empty());
}

}  // namespace
}  // namespace hars
