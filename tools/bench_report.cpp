// bench_report: merges the BENCH_*.json perf records the bench binaries
// emit (tick_bench, scenario_suite, fuzz_suite, hars_client's daemon
// record) into one human-readable table, so the perf trajectory of a
// branch is one command instead of four files of nested JSON.
//
// Usage:
//   bench_report BENCH_tick.json BENCH_scenarios.json ...
//   bench_report --dir build            # all BENCH_*.json in a directory
//   bench_report --out summary.txt ...  # also write the table to a file
//
// Exit code: 0 on success, 1 when any input fails to parse (a perf
// record that stops parsing is a regression in itself).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using hars::json::Value;

struct Row {
  std::string file;
  std::string campaign;
  std::string headline;
};

std::string trim_number(double v) {
  std::ostringstream out;
  out.precision(4);
  out << v;
  return out.str();
}

/// Pulls the figures worth one table cell out of a perf record. The
/// records share no schema, so this is a best-effort scan of the keys
/// each campaign actually emits.
std::string headline_of(const Value& doc) {
  std::string out;
  for (const char* key :
       {"wall_ms", "first_record_ms", "records_per_sec", "cases"}) {
    if (const Value* v = doc.find(key); v != nullptr && v->is_number()) {
      if (!out.empty()) out += "  ";
      out += std::string(key) + "=" + trim_number(v->as_number());
    }
  }
  return out.empty() ? "(no scalar figures)" : out;
}

std::string campaign_of(const Value& doc, const std::string& file) {
  if (const Value* v = doc.find("campaign"); v != nullptr && v->is_string()) {
    return v->as_string();
  }
  if (const Value* v = doc.find("bench"); v != nullptr && v->is_string()) {
    return v->as_string();
  }
  // BENCH_tick.json -> tick
  std::string name = fs::path(file).filename().string();
  if (name.rfind("BENCH_", 0) == 0) name = name.substr(6);
  const std::size_t dot = name.rfind('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

void print_table(std::ostream& out, const std::vector<Row>& rows) {
  std::size_t file_width = 4, campaign_width = 8;
  for (const Row& r : rows) {
    file_width = std::max(file_width, r.file.size());
    campaign_width = std::max(campaign_width, r.campaign.size());
  }
  out << std::string(file_width, '-') << "  "
      << std::string(campaign_width, '-') << "  --------\n";
  for (const Row& r : rows) {
    out << r.file << std::string(file_width - r.file.size() + 2, ' ')
        << r.campaign << std::string(campaign_width - r.campaign.size() + 2, ' ')
        << r.headline << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> dirs;
  std::string out_path;
  hars::flags::Parser cli("bench_report",
                          "[--dir DIR] [--out FILE] [BENCH_*.json ...]");
  cli.positional("BENCH_*.json", &files, "perf records to summarize")
      .flag("--dir DIR", &dirs,
            "also read every BENCH_*.json in DIR; repeatable")
      .flag("--out FILE", &out_path, "also write the table to FILE")
      .help_alias("-h");
  if (const hars::flags::Status status = cli.parse(argc, argv);
      status != hars::flags::Status::kOk) {
    return hars::flags::exit_code(status);
  }
  for (const std::string& dir : dirs) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "bench_report: cannot read directory '%s'\n",
                   dir.c_str());
      return 1;
    }
  }
  if (files.empty()) {
    std::fputs("bench_report: no BENCH_*.json inputs (see --help)\n", stderr);
    return 2;
  }
  std::sort(files.begin(), files.end());

  std::vector<Row> rows;
  bool failed = false;
  for (const std::string& file : files) {
    Row row;
    row.file = fs::path(file).filename().string();
    try {
      const Value doc = hars::json::parse_file(file);
      row.campaign = campaign_of(doc, file);
      row.headline = headline_of(doc);
    } catch (const std::exception& e) {
      row.campaign = "ERROR";
      row.headline = e.what();
      failed = true;
    }
    rows.push_back(std::move(row));
  }

  print_table(std::cout, rows);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "bench_report: cannot open '%s'\n",
                   out_path.c_str());
      return 1;
    }
    print_table(out, rows);
  }
  return failed ? 1 : 0;
}
