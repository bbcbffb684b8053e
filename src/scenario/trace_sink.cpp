#include "scenario/trace_sink.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/experiment.hpp"
#include "hmp/platform_registry.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"

namespace hars {

TraceSink::TraceSink(int sample_every_ticks)
    : sample_ticks_(sample_every_ticks < 1 ? 1 : sample_every_ticks),
      jsonl_(buffer_) {}

void TraceSink::write_meta(const TraceMeta& meta) {
  if (PlatformRegistry::instance().find(meta.platform) == nullptr) {
    throw ScenarioError(
        "trace capture needs a registry platform for replay; \"" +
        meta.platform + "\" is not registered");
  }
  Record r;
  r.set("kind", "meta");
  r.set("scenario", meta.scenario_dsl);
  r.set("platform", meta.platform);
  r.set("variant", meta.variant);
  r.set("seed", std::to_string(meta.seed));  // Text: exact 64-bit value.
  r.set("threads", meta.threads);
  r.set("duration_us", static_cast<std::int64_t>(meta.duration_us));
  r.set("fraction", meta.fraction);
  r.set("sample_ticks", meta.sample_ticks);
  jsonl_.write(r);
}

void TraceSink::write(const Record& record) {
  jsonl_.write(record);
  if (record.text("kind") == "sample") samples_.push_back(record);
}

bool TraceSink::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << bytes();
  return out.good();
}

namespace {

[[noreturn]] void bad_meta(const std::string& why) {
  throw ScenarioError("trace meta: " + why);
}

}  // namespace

TraceMeta parse_trace_meta(const std::string& meta_line) {
  json::Value line;
  try {
    line = json::parse(meta_line);
  } catch (const std::runtime_error& error) {
    bad_meta(error.what());
  }
  if (!line.is_object()) bad_meta("first line is not a JSON object");
  const auto text = [&line](const std::string& key) -> const std::string& {
    const json::Value* v = line.find(key);
    if (v == nullptr || !v->is_string()) {
      bad_meta("missing string field \"" + key + "\"");
    }
    return v->as_string();
  };
  const auto number = [&line](const std::string& key) {
    const json::Value* v = line.find(key);
    if (v == nullptr || !v->is_number()) {
      bad_meta("missing numeric field \"" + key + "\"");
    }
    return v->as_number();
  };
  if (text("kind") != "meta") bad_meta("first line is not a meta record");
  TraceMeta meta;
  meta.scenario_dsl = text("scenario");
  meta.platform = text("platform");
  meta.variant = text("variant");
  meta.seed = std::strtoull(text("seed").c_str(), nullptr, 10);
  meta.threads = static_cast<int>(number("threads"));
  meta.duration_us = static_cast<TimeUs>(number("duration_us"));
  meta.fraction = number("fraction");
  meta.sample_ticks = static_cast<int>(number("sample_ticks"));
  return meta;
}

ReplayOutcome replay_trace(const std::string& bytes) {
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string::npos) bad_meta("capture has no meta line");
  const TraceMeta meta = parse_trace_meta(bytes.substr(0, eol));

  std::istringstream dsl(meta.scenario_dsl);
  const Scenario scenario = Scenario::from_stream(dsl);

  TraceSink sink(meta.sample_ticks);
  ExperimentBuilder builder;
  builder.platform(std::string_view(meta.platform))
      .scenario(scenario)
      .variant(meta.variant)
      .seed(meta.seed)
      .threads(meta.threads)
      .duration(meta.duration_us)
      .target_fraction(meta.fraction)
      .capture(sink);
  try {
    (void)builder.build().run();
  } catch (const ExperimentConfigError& error) {
    throw ScenarioError(std::string("replay cannot re-run capture: ") +
                        error.what());
  }

  const std::string replayed = sink.bytes();
  if (replayed == bytes) return ReplayOutcome{true, "replay is bit-identical"};

  // Locate the first diverging line for the report.
  std::istringstream a(bytes);
  std::istringstream b(replayed);
  std::string la;
  std::string lb;
  int line_no = 0;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    ++line_no;
    if (!ga && !gb) break;
    if (la != lb || ga != gb) {
      return ReplayOutcome{
          false, "replay diverges at line " + std::to_string(line_no) +
                     ":\n  captured: " + (ga ? la : "<eof>") +
                     "\n  replayed: " + (gb ? lb : "<eof>")};
    }
  }
  return ReplayOutcome{false, "replay diverges (byte-level difference)"};
}

ReplayOutcome replay_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return replay_trace(buffer.str());
}

}  // namespace hars
