#include "oracle/repro.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "sweep/result_sink.hpp"  // format_number

namespace hars {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ScenarioError("repro: " + message);
}

/// Recipe values live on one comment line each; collapse embedded
/// newlines so recorded failure messages cannot break the format.
std::string one_line(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

std::string format_repro(const ReproCase& repro) {
  std::ostringstream out;
  out << "# hars_fuzz repro v1\n";
  out << "# variant=" << repro.variant << '\n';
  out << "# platform=" << repro.platform << '\n';
  out << "# seed=" << repro.seed << '\n';
  if (repro.threads != 0) out << "# threads=" << repro.threads << '\n';
  out << "# duration_sec=" << format_number(repro.duration_sec) << '\n';
  out << "# fraction=" << format_number(repro.fraction) << '\n';
  if (!repro.inject.empty()) out << "# inject=" << repro.inject << '\n';
  out << "# expect=" << (repro.expect_fail ? "fail" : "pass") << '\n';
  if (!repro.failure.empty()) {
    out << "# failure=" << one_line(repro.failure) << '\n';
  }
  if (!repro.generator.empty()) {
    out << "# generator=" << repro.generator << '\n';
  }
  if (repro.shrink_attempts > 0) {
    out << "# shrink_attempts=" << repro.shrink_attempts << '\n';
  }
  if (repro.original_events > 0) {
    out << "# original_events=" << repro.original_events << '\n';
  }
  if (!repro.rerun.empty()) out << "# rerun=" << repro.rerun << '\n';
  repro.scenario.to_stream(out);
  return out.str();
}

ReproCase parse_repro(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  ReproCase repro;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() != '#') break;  // Recipe comments precede the DSL.
    std::string body = line.substr(1);
    if (!body.empty() && body.front() == ' ') body = body.substr(1);
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos || eq == 0) continue;  // Plain comment.
    const std::string key = body.substr(0, eq);
    const std::string value = body.substr(eq + 1);
    char* end = nullptr;
    if (key == "variant") {
      repro.variant = value;
    } else if (key == "platform") {
      repro.platform = value;
    } else if (key == "seed") {
      repro.seed = std::strtoull(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0') fail("malformed seed \"" + value + "\"");
    } else if (key == "threads") {
      repro.threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') fail("malformed threads \"" + value + "\"");
    } else if (key == "duration_sec") {
      repro.duration_sec = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') fail("malformed duration_sec \"" + value + "\"");
    } else if (key == "fraction") {
      repro.fraction = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') fail("malformed fraction \"" + value + "\"");
    } else if (key == "inject") {
      repro.inject = value;
    } else if (key == "expect") {
      if (value != "pass" && value != "fail") {
        fail("expect must be pass or fail, got \"" + value + "\"");
      }
      repro.expect_fail = value == "fail";
    } else if (key == "failure") {
      repro.failure = value;
    } else if (key == "generator") {
      repro.generator = value;
    } else if (key == "shrink_attempts") {
      repro.shrink_attempts =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') fail("malformed shrink_attempts \"" + value + "\"");
    } else if (key == "original_events") {
      repro.original_events = static_cast<std::size_t>(
          std::strtoull(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') fail("malformed original_events \"" + value + "\"");
    } else if (key == "rerun") {
      repro.rerun = value;
    }
    // Unrecognized "# key=value" lines are plain comments: ignored.
  }

  std::istringstream dsl(content);
  repro.scenario = Scenario::from_stream(dsl);
  return repro;
}

ReproCase parse_repro_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  try {
    return parse_repro(in);
  } catch (const ScenarioError& error) {
    throw ScenarioError(std::string(error.what()) + " [" + path + "]");
  }
}

std::optional<std::string> injected_failure(const Scenario& scenario,
                                            std::string_view kind) {
  if (kind == "phase_gt2") {
    for (const ScenarioEvent& e : scenario.events) {
      if (e.kind == ScenarioEventKind::kSetPhase && e.phase_scale > 2.0) {
        return "injected phase_gt2: set_phase scale=" +
               format_number(e.phase_scale) + " > 2 (app " + e.app + " at " +
               format_number(static_cast<double>(e.time) / kUsPerMs) + " ms)";
      }
    }
    return std::nullopt;
  }
  if (kind == "kill_during_outage") {
    CpuMask offline;
    for (const ScenarioEvent& e : scenario.events) {
      if (e.kind == ScenarioEventKind::kOfflineCores) {
        offline = offline | e.cores;
      } else if (e.kind == ScenarioEventKind::kOnlineCores) {
        offline = offline & ~e.cores;
      } else if (e.kind == ScenarioEventKind::kKill && offline.any()) {
        return "injected kill_during_outage: app " + e.app + " killed at " +
               format_number(static_cast<double>(e.time) / kUsPerMs) +
               " ms with cores " + offline.to_string() + " offline";
      }
    }
    return std::nullopt;
  }
  throw ScenarioError("repro: unknown inject kind \"" + std::string(kind) +
                      "\"; known: phase_gt2 kill_during_outage");
}

}  // namespace hars
