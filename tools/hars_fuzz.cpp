// hars_fuzz: property-based scenario fuzzing with shrinking repros.
//
// Generates N seeded scenarios (rotating through the generator profiles
// or a --profile list), runs each across variants × platforms with every
// correctness oracle armed — debug invariant audits forced on,
// AllocGuard, check_invariants, thrown exceptions, plus the differential
// optimized-vs-reference record-identity oracle — and, on any failure,
// shrinks the scenario to a minimal failing repro written to the corpus
// directory with an embedded re-run recipe (see oracle/repro.hpp).
//
// Deterministic: the whole campaign, including every generated scenario
// and every corpus byte, is a pure function of --seed and the flags. Two
// runs with the same seed produce byte-identical output.
//
//   hars_fuzz --runs 100 --seed 1234 --corpus fuzz_corpus
//   hars_fuzz --repro fuzz_corpus/r12_HARS-E_exynos5422.scenario.csv
//   hars_fuzz --repro-dir fuzz/corpus          # regression replay
//   hars_fuzz --runs 20 --inject-bug phase_gt2 # harness self-test
//
// Exit codes: 0 = no failures (or every repro matched its expectation),
// 2 = new failures found (repros written), 3 = a repro's outcome did not
// match its # expect= line, 1 = usage or I/O error.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/variant_registry.hpp"
#include "oracle/fuzz_harness.hpp"
#include "oracle/repro.hpp"
#include "oracle/shrink.hpp"
#include "scenario/generator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace hars;

struct Options {
  int runs = 25;
  std::uint64_t seed = 1;
  std::vector<std::string> profiles;
  std::vector<std::string> variants;
  std::vector<std::string> platforms;
  double duration_sec = 20.0;
  int threads = 0;
  double fraction = 0.9;
  std::string corpus = "fuzz_corpus";
  int max_shrink = 400;
  bool differential = true;
  std::string inject;
  std::string dump_dir;
  std::string repro_file;
  std::string repro_dir;
  bool quiet = false;
};

/// Per-run generator seed: decorrelated from the campaign seed counter
/// so consecutive runs draw unrelated scenarios.
std::uint64_t derive_seed(std::uint64_t campaign_seed, int run) {
  std::uint64_t state =
      campaign_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(run + 1);
  return splitmix64(state);
}

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_')) {
      c = '_';
    }
  }
  return name;
}

/// Replays one repro file; returns true when the observed outcome
/// matches the file's expectation.
bool replay_repro(const std::string& path, bool differential, bool quiet) {
  const ReproCase repro = parse_repro_file(path);
  const FuzzCaseResult outcome = run_fuzz_case(repro, differential);
  const bool match = outcome.failed == repro.expect_fail;
  if (!quiet || !match) {
    std::cout << path << ": " << (outcome.failed ? "FAIL" : "pass")
              << " (expected " << (repro.expect_fail ? "fail" : "pass") << ")"
              << (match ? "" : "  <-- MISMATCH") << "\n";
    if (outcome.failed && !quiet) std::cout << "  " << outcome.message << "\n";
  }
  return match;
}

int run_campaign(const Options& opt) {
  const std::vector<std::string> profiles =
      opt.profiles.empty() ? ScenarioGenerator::profiles() : opt.profiles;
  const std::vector<std::string> variants =
      opt.variants.empty() ? VariantRegistry::instance().names() : opt.variants;
  const std::vector<std::string> platforms =
      opt.platforms.empty() ? std::vector<std::string>{"exynos5422"}
                            : opt.platforms;

  if (!opt.dump_dir.empty()) {
    std::filesystem::create_directories(opt.dump_dir);
  }

  int runs_executed = 0;
  int failures = 0;
  int repros_written = 0;
  int shrink_attempts_total = 0;

  for (int r = 0; r < opt.runs; ++r) {
    // --profile accepts either a bare profile name or a full gen: name
    // whose parameters pin the distribution (seed/horizon still rotate).
    const std::string& profile_name =
        profiles[static_cast<std::size_t>(r) % profiles.size()];
    GeneratorSpec spec = ScenarioGenerator::is_generated_name(profile_name)
                             ? ScenarioGenerator::parse_name(profile_name)
                             : ScenarioGenerator::profile(profile_name);
    spec.seed = derive_seed(opt.seed, r);
    spec.horizon_s = opt.duration_sec;
    const Scenario scenario = ScenarioGenerator(spec).generate();

    if (!opt.dump_dir.empty()) {
      std::ofstream out(opt.dump_dir + "/r" + std::to_string(r) +
                        ".scenario.csv");
      out << scenario.to_dsl();
    }

    for (const std::string& platform : platforms) {
      bool scenario_failed = false;
      for (const std::string& variant : variants) {
        ReproCase repro;
        repro.scenario = scenario;
        repro.variant = variant;
        repro.platform = platform;
        // One experiment seed for the whole campaign: scenario diversity
        // comes from generator seeds, and a shared seed keeps the
        // calibration cache hot across runs.
        repro.seed = opt.seed;
        repro.threads = opt.threads;
        repro.duration_sec = opt.duration_sec;
        repro.fraction = opt.fraction;
        repro.inject = opt.inject;
        ++runs_executed;
        const FuzzCaseResult outcome = run_fuzz_case(repro, opt.differential);
        if (!outcome.failed) continue;

        ++failures;
        if (!opt.quiet) {
          std::cout << "FAIL r" << r << " " << variant << " " << platform
                    << " (" << scenario.name << ")\n  " << outcome.message
                    << "\n";
        }

        ShrinkOptions shrink_options;
        shrink_options.max_attempts = opt.max_shrink;
        ShrinkStats stats;
        ReproCase probe = repro;
        const Scenario minimal = shrink_scenario(
            scenario,
            [&](const Scenario& candidate) {
              probe.scenario = candidate;
              return run_fuzz_case(probe, opt.differential).failed;
            },
            shrink_options, &stats);
        shrink_attempts_total += stats.attempts;

        repro.scenario = minimal;
        repro.failure = outcome.message.substr(0, outcome.message.find('\n'));
        repro.generator = scenario.name;
        repro.shrink_attempts = stats.attempts;
        repro.original_events = scenario.events.size();
        std::filesystem::create_directories(opt.corpus);
        const std::string file = opt.corpus + "/r" + std::to_string(r) + "_" +
                                 sanitize(variant) + "_" + sanitize(platform) +
                                 ".scenario.csv";
        repro.rerun = "hars_fuzz --repro " + file +
                      (opt.differential ? "" : " --no-differential");
        std::ofstream out(file);
        out << format_repro(repro);
        ++repros_written;
        if (!opt.quiet) {
          std::cout << "  shrunk " << scenario.events.size() << " -> "
                    << minimal.events.size() << " events in " << stats.attempts
                    << " attempts; wrote " << file << "\n";
        }
        scenario_failed = true;
        break;  // First failing variant is the repro; next platform.
      }
      if (scenario_failed) break;
    }
  }

  std::cout << "fuzz: " << opt.runs << " scenarios, " << runs_executed
            << " oracle runs, " << failures << " failures, " << repros_written
            << " repros";
  if (repros_written > 0) {
    std::cout << " -> " << opt.corpus << " (shrink attempts: "
              << shrink_attempts_total << ")";
  }
  std::cout << "\n";
  return failures == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool no_differential = false;
  flags::Parser cli("hars_fuzz");
  cli.flag("--runs N", &opt.runs, "scenarios to generate (default 25)")
      .flag("--seed S", &opt.seed,
            "campaign seed; all output is a pure\nfunction of it (default 1)")
      .flag("--profile NAME", &opt.profiles,
            "generator profile (repeatable; default:\n"
            "rotate through all profiles)")
      .flag("--variant V", &opt.variants,
            "runtime variant (repeatable; default: all)")
      .flag("--platform P", &opt.platforms,
            "platform (repeatable; default exynos5422)")
      .flag("--duration SEC", &opt.duration_sec,
            "simulated seconds per run (default 20)")
      .flag("--threads N", &opt.threads,
            "app threads (default: experiment default)")
      .flag("--fraction F", &opt.fraction, "target fraction (default 0.9)")
      .flag("--corpus DIR", &opt.corpus,
            "where repros go (default fuzz_corpus)")
      .flag("--max-shrink N", &opt.max_shrink,
            "shrink budget in oracle runs (default 400)")
      .flag("--no-differential", &no_differential,
            "skip the reference-identity oracle")
      .flag("--inject-bug KIND", &opt.inject,
            "synthetic oracle self-test (phase_gt2,\nkill_during_outage)")
      .flag("--dump-scenarios DIR", &opt.dump_dir,
            "write every generated scenario CSV")
      .flag("--repro FILE", &opt.repro_file, "replay one corpus repro")
      .flag("--repro-dir DIR", &opt.repro_dir,
            "replay a corpus; outcomes must match\n"
            "each file's # expect= line")
      .flag("--quiet", &opt.quiet, "summary only")
      .help_alias("-h");
  // Exit code 2 means "new failures found", so a usage error is 1.
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status, 1);
  }
  opt.differential = !no_differential;

  try {
    if (!opt.repro_file.empty()) {
      return replay_repro(opt.repro_file, opt.differential, opt.quiet) ? 0 : 3;
    }
    if (!opt.repro_dir.empty()) {
      std::vector<std::string> files;
      for (const auto& entry :
           std::filesystem::directory_iterator(opt.repro_dir)) {
        const std::string path = entry.path().string();
        if (path.size() >= 13 &&
            path.substr(path.size() - 13) == ".scenario.csv") {
          files.push_back(path);
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) {
        std::cerr << "hars_fuzz: no *.scenario.csv in " << opt.repro_dir
                  << "\n";
        return 1;
      }
      int mismatches = 0;
      for (const std::string& file : files) {
        if (!replay_repro(file, opt.differential, opt.quiet)) ++mismatches;
      }
      std::cout << "corpus: " << files.size() << " repros, " << mismatches
                << " mismatches\n";
      return mismatches == 0 ? 0 : 3;
    }
    if (opt.runs <= 0) {
      std::cerr << "hars_fuzz: --runs must be >= 1\n";
      return 1;
    }
    return run_campaign(opt);
  } catch (const std::exception& error) {
    std::cerr << "hars_fuzz: " << error.what() << "\n";
    return 1;
  }
}
