// docs_check: CI gate for the documentation layer.
//
// 1. Link check — every relative markdown link in README.md and
//    docs/*.md must resolve to an existing file (anchors and absolute
//    URLs are skipped).
// 2. Format-drift check — every worked example checked into examples/
//    must parse with the *real* parser it documents, so
//    docs/FILE_FORMATS.md cannot drift from the code:
//      examples/*.scenario.csv   -> Scenario::from_file; files with a
//                                   "# generator=" comment also check
//                                   the gen: name grammar, and hars_fuzz
//                                   repros ("# hars_fuzz repro v1")
//                                   round-trip through parse_repro
//      examples/*.trace.jsonl    -> parse_trace_meta + record shape
//      examples/*.records.csv    -> CSV shape (constant column count)
//      examples/*.records.jsonl  -> JSONL record shape
//      examples/*.metrics.jsonl  -> telemetry metric dump (util/json)
//      examples/*.spans.json     -> Chrome trace-event JSON (util/json)
//      examples/*.prom           -> Prometheus text exposition shape
//      examples/*.transcript.jsonl -> hars_simd wire-protocol transcript
//                                   (each payload through the real
//                                   svc request/response parsers)
//      examples/*.sysfs          -> FakeSysfs::from_file + the topology
//                                   probe; exynos5422.sysfs must stay
//                                   byte-identical to the built-in
//                                   kExynos5422Fixture tree
//
//   docs_check [--root DIR]   (default: current directory)
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/sysfs.hpp"
#include "backend/sysfs_probe.hpp"
#include "oracle/repro.hpp"
#include "scenario/generator.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace_sink.hpp"
#include "svc/protocol.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;

int failures = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "docs_check: %s\n", what.c_str());
  ++failures;
}

/// Extracts relative link targets from one markdown file and verifies
/// they exist. Matches the `](target)` part of inline links.
void check_links(const fs::path& root, const fs::path& md) {
  std::ifstream in(md);
  if (!in) {
    fail("cannot read " + md.string());
    return;
  }
  std::string line;
  int line_no = 0;
  bool in_code_fence = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t text = line.find_first_not_of(" \t");
    if (text != std::string::npos && line.compare(text, 3, "```") == 0) {
      in_code_fence = !in_code_fence;
      continue;
    }
    if (in_code_fence) continue;  // C++ lambdas look like markdown links.
    std::size_t pos = 0;
    while ((pos = line.find("](", pos)) != std::string::npos) {
      const std::size_t start = pos + 2;
      const std::size_t end = line.find(')', start);
      if (end == std::string::npos) break;
      std::string target = line.substr(start, end - start);
      pos = end;
      // Skip absolute URLs, mailto, in-page anchors, and "targets" with
      // spaces (inline code that merely looks like a link).
      if (target.empty() || target.front() == '#' ||
          target.find("://") != std::string::npos ||
          target.rfind("mailto:", 0) == 0 ||
          target.find(' ') != std::string::npos) {
        continue;
      }
      const std::size_t anchor = target.find('#');
      if (anchor != std::string::npos) target = target.substr(0, anchor);
      const fs::path resolved = md.parent_path() / target;
      if (!fs::exists(resolved)) {
        fail(md.lexically_relative(root).string() + ":" +
             std::to_string(line_no) + ": broken link \"" + target + "\"");
      }
    }
  }
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Scenario examples come in three flavours, all `*.scenario.csv`:
/// plain DSL files, generated examples carrying a `# generator=` name
/// (the name must parse and its canonical form must round-trip — the
/// scenario is deliberately NOT re-generated and byte-compared, since
/// log/pow draws differ across libm builds), and hars_fuzz corpus
/// repros (`# hars_fuzz repro v1` first line) whose recipe must
/// round-trip byte-identically through parse_repro/format_repro.
void check_scenario_example(const fs::path& path) {
  std::ifstream probe(path);
  std::string first_line;
  std::getline(probe, first_line);
  if (first_line == "# hars_fuzz repro v1") {
    try {
      const hars::ReproCase repro = hars::parse_repro_file(path.string());
      std::ifstream in(path);
      std::stringstream raw;
      raw << in.rdbuf();
      if (hars::format_repro(repro) != raw.str()) {
        fail(path.string() +
             ": repro does not round-trip byte-identically through "
             "parse_repro/format_repro");
      }
    } catch (const std::exception& error) {
      fail(path.string() + ": " + error.what());
    }
    return;
  }
  try {
    (void)hars::Scenario::from_file(path.string());
  } catch (const std::exception& error) {
    fail(path.string() + ": " + error.what());
  }
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = "# generator=";
    if (line.rfind(key, 0) != 0) continue;
    const std::string name = line.substr(key.size());
    try {
      const hars::GeneratorSpec spec = hars::ScenarioGenerator::parse_name(name);
      const std::string canonical = hars::ScenarioGenerator::canonical_name(spec);
      if (hars::ScenarioGenerator::canonical_name(
              hars::ScenarioGenerator::parse_name(canonical)) != canonical) {
        fail(path.string() + ": generator name \"" + name +
             "\" does not round-trip through parse_name/canonical_name");
      }
    } catch (const std::exception& error) {
      fail(path.string() + ": generator name \"" + name + "\": " +
           error.what());
    }
  }
}

void check_jsonl_shape(const fs::path& path, bool expect_trace_meta) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot read " + path.string());
    return;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') {
      fail(path.string() + ":" + std::to_string(line_no) +
           ": not a one-line JSON object");
      return;
    }
    if (expect_trace_meta && line_no == 1) {
      try {
        (void)hars::parse_trace_meta(line);
      } catch (const std::exception& error) {
        fail(path.string() + ": meta line: " + error.what());
      }
    }
  }
  if (line_no == 0) fail(path.string() + ": empty example");
}

void check_records_csv(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot read " + path.string());
    return;
  }
  std::string header;
  if (!std::getline(in, header) || header.empty()) {
    fail(path.string() + ": missing CSV header");
    return;
  }
  const std::size_t columns = split_csv(header).size();
  std::string line;
  int line_no = 1;
  int rows = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ++rows;
    if (split_csv(line).size() != columns) {
      fail(path.string() + ":" + std::to_string(line_no) +
           ": row has a different cell count than the header");
    }
  }
  if (rows == 0) fail(path.string() + ": header but no rows");
}

/// Telemetry metric dump: every line is one JSON object with at least
/// "name" (string) and "kind" (counter|gauge|histogram), the format
/// documented in docs/OBSERVABILITY.md.
void check_metrics_jsonl(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot read " + path.string());
    return;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const hars::json::Value v = hars::json::parse(line);
      const std::string& kind = v.at("kind").as_string();
      (void)v.at("name").as_string();
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        throw std::runtime_error("unknown metric kind \"" + kind + "\"");
      }
      if (kind == "histogram") (void)v.at("buckets").as_array();
    } catch (const std::exception& error) {
      fail(path.string() + ":" + std::to_string(line_no) + ": " +
           error.what());
      return;
    }
  }
  if (line_no == 0) fail(path.string() + ": empty example");
}

/// Chrome trace-event JSON: one object with a "traceEvents" array of
/// complete ("ph":"X") events carrying name/ts/dur.
void check_spans_json(const fs::path& path) {
  try {
    const hars::json::Value doc = hars::json::parse_file(path.string());
    const auto& events = doc.at("traceEvents").as_array();
    if (events.empty()) {
      fail(path.string() + ": traceEvents is empty");
      return;
    }
    for (const hars::json::Value& event : events) {
      (void)event.at("name").as_string();
      (void)event.at("ts").as_number();
      (void)event.at("dur").as_number();
      if (event.at("ph").as_string() != "X") {
        fail(path.string() + ": expected complete events (ph == \"X\")");
        return;
      }
    }
  } catch (const std::exception& error) {
    fail(path.string() + ": " + error.what());
  }
}

/// Prometheus text exposition: comment lines start with '#'; sample
/// lines are `name[{labels}] value` where value parses as a double.
void check_prom_example(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot read " + path.string());
    return;
  }
  std::string line;
  int line_no = 0;
  int samples = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    const std::string name = space == std::string::npos
                                 ? std::string()
                                 : line.substr(0, space);
    bool ok = !name.empty() && (std::isalpha(name.front()) != 0 ||
                                name.front() == '_');
    if (ok) {
      try {
        std::size_t used = 0;
        (void)std::stod(line.substr(space + 1), &used);
        ok = used == line.size() - space - 1;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      fail(path.string() + ":" + std::to_string(line_no) +
           ": not a `name value` sample or `#` comment");
      return;
    }
    ++samples;
  }
  if (samples == 0) fail(path.string() + ": no samples");
}

/// Wire-protocol transcript: each line is {"direction": "request" |
/// "response", "payload": {...}} and every payload must survive the
/// *real* svc parsers, so the worked example in docs/FILE_FORMATS.md
/// cannot drift from src/svc/protocol.cpp.
void check_transcript_jsonl(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot read " + path.string());
    return;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const hars::json::Value v = hars::json::parse(line);
      const std::string& direction = v.at("direction").as_string();
      const hars::json::Value& payload = v.at("payload");
      if (direction == "request") {
        (void)hars::svc::parse_request(payload);
      } else if (direction == "response") {
        const std::string type = hars::svc::response_type(payload);
        if (type == "pong") {
          // id only; nothing further to parse.
        } else if (type == "ack") {
          (void)hars::svc::parse_ack(payload);
        } else if (type == "record") {
          (void)hars::svc::parse_record(payload);
        } else if (type == "summary") {
          (void)hars::svc::parse_summary(payload);
        } else if (type == "error") {
          (void)hars::svc::parse_error(payload);
        } else if (type == "stats") {
          (void)hars::svc::parse_stats(payload);
        } else if (type == "status") {
          (void)hars::svc::parse_status(payload);
        } else if (type == "result") {
          (void)hars::svc::parse_run_result(payload);
        } else if (type == "metrics") {
          (void)payload.at("text").as_string();
        } else {
          throw std::runtime_error("unknown response type \"" + type + "\"");
        }
      } else {
        throw std::runtime_error("direction must be request or response");
      }
    } catch (const std::exception& error) {
      fail(path.string() + ":" + std::to_string(line_no) + ": " +
           error.what());
      return;
    }
  }
  if (line_no == 0) fail(path.string() + ": empty example");
}

/// Sysfs fixture examples (FILE_FORMATS.md, "Sysfs fixtures"): must load
/// through the real fixture parser and probe into at least one cpu
/// cluster. exynos5422.sysfs is additionally pinned byte-identical to
/// the built-in kExynos5422Fixture tree, so the shipped example cannot
/// drift from the fixture the backend tests run against.
void check_sysfs_example(const fs::path& path) {
  try {
    const hars::FakeSysfs fixture = hars::FakeSysfs::from_file(path.string());
    const hars::ProbedTopology topo = hars::probe_topology(fixture);
    if (topo.clusters.empty()) {
      fail(path.string() + ": probes into zero cpu clusters");
      return;
    }
  } catch (const std::exception& error) {
    fail(path.string() + ": " + error.what());
    return;
  }
  if (path.filename() == "exynos5422.sysfs") {
    std::ifstream in(path);
    std::stringstream raw;
    raw << in.rdbuf();
    if (raw.str() != hars::kExynos5422Fixture) {
      fail(path.string() +
           ": differs from the built-in kExynos5422Fixture "
           "(src/backend/sysfs.cpp); keep the two in sync");
    }
  }
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_dir = ".";
  hars::flags::Parser cli("docs_check");
  cli.flag("--root DIR", &root_dir,
           "repository root holding README.md, docs/ and examples/\n"
           "(default .)");
  if (const hars::flags::Status status = cli.parse(argc, argv);
      status != hars::flags::Status::kOk) {
    return hars::flags::exit_code(status);
  }
  const fs::path root = root_dir;

  // --- Links ---
  const fs::path readme = root / "README.md";
  if (fs::exists(readme)) {
    check_links(root, readme);
  } else {
    fail("README.md not found under " + root.string());
  }
  const fs::path docs = root / "docs";
  if (fs::is_directory(docs)) {
    for (const auto& entry : fs::directory_iterator(docs)) {
      if (entry.path().extension() == ".md") check_links(root, entry.path());
    }
  } else {
    fail("docs/ not found under " + root.string());
  }

  // --- Worked examples vs. parsers ---
  const fs::path examples = root / "examples";
  int checked = 0;
  if (fs::is_directory(examples)) {
    for (const auto& entry : fs::directory_iterator(examples)) {
      const std::string name = entry.path().filename().string();
      if (ends_with(name, ".scenario.csv")) {
        check_scenario_example(entry.path());
        ++checked;
      } else if (ends_with(name, ".trace.jsonl")) {
        check_jsonl_shape(entry.path(), /*expect_trace_meta=*/true);
        ++checked;
      } else if (ends_with(name, ".transcript.jsonl")) {
        check_transcript_jsonl(entry.path());
        ++checked;
      } else if (ends_with(name, ".records.jsonl")) {
        check_jsonl_shape(entry.path(), /*expect_trace_meta=*/false);
        ++checked;
      } else if (ends_with(name, ".records.csv")) {
        check_records_csv(entry.path());
        ++checked;
      } else if (ends_with(name, ".metrics.jsonl")) {
        check_metrics_jsonl(entry.path());
        ++checked;
      } else if (ends_with(name, ".spans.json")) {
        check_spans_json(entry.path());
        ++checked;
      } else if (ends_with(name, ".prom")) {
        check_prom_example(entry.path());
        ++checked;
      } else if (ends_with(name, ".sysfs")) {
        check_sysfs_example(entry.path());
        ++checked;
      }
    }
  } else {
    fail("examples/ not found under " + root.string());
  }
  if (checked == 0) {
    fail("no example data files found (expected *.scenario.csv, "
         "*.trace.jsonl, *.records.{csv,jsonl} under examples/)");
  }

  if (failures > 0) {
    std::fprintf(stderr, "docs_check: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("docs_check: links and %d example file(s) OK\n", checked);
  return 0;
}
