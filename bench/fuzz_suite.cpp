// fuzz_suite: throughput of the generative fuzzing pipeline.
//
// Three phases, each reported in BENCH_fuzz.json for CI's perf
// trajectory (bench_report folds it into the summary table):
//   * generate — scenarios/sec of ScenarioGenerator across all profiles
//     (spec parse + draw + validate + DSL serialization);
//   * oracle   — oracle runs/sec of run_fuzz_case with audits forced on
//     and the differential reference check enabled;
//   * shrink   — shrink attempts and final event counts for seeded
//     known-bug fixtures (injected oracles), i.e. the cost of producing
//     one minimal corpus repro.
//
//   fuzz_suite [--generate N] [--oracle N] [--shrink N] [--duration SEC]
//              [--seed S] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "oracle/fuzz_harness.hpp"
#include "oracle/repro.hpp"
#include "oracle/shrink.hpp"
#include "scenario/generator.hpp"
#include "sweep/result_sink.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace hars;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  int generate_count = 2000;
  int oracle_count = 24;
  int shrink_count = 5;
  double duration_sec = 10.0;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_fuzz.json";
  flags::Parser cli("fuzz_suite");
  cli.flag("--generate N", &generate_count,
           "scenarios to generate for the throughput phase (default 2000)")
      .flag("--oracle N", &oracle_count, "oracle runs to time (default 24)")
      .flag("--shrink N", &shrink_count,
            "seeded bug fixtures to shrink (default 5)")
      .flag("--duration SEC", &duration_sec,
            "simulated seconds per oracle run (default 10)")
      .flag("--seed S", &seed, "campaign seed (default 1)")
      .flag("--out FILE", &out_path, "perf record (default BENCH_fuzz.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }

  const std::vector<std::string> profiles = ScenarioGenerator::profiles();

  // --- Phase 1: generation throughput.
  std::size_t events_total = 0;
  const auto gen_start = std::chrono::steady_clock::now();
  for (int i = 0; i < generate_count; ++i) {
    GeneratorSpec spec =
        ScenarioGenerator::profile(profiles[static_cast<std::size_t>(i) %
                                            profiles.size()]);
    spec.seed = seed + static_cast<std::uint64_t>(i);
    const Scenario s = ScenarioGenerator(spec).generate();
    events_total += s.events.size();
    // The DSL round-trip is part of the fuzz loop (corpus writes).
    events_total += s.to_dsl().empty() ? 1 : 0;
  }
  const double gen_ms = ms_since(gen_start);
  const double gen_per_sec = generate_count / (gen_ms / 1e3);
  std::printf("generate  %d scenarios (%zu events) in %.1f ms  (%.0f/s)\n",
              generate_count, events_total, gen_ms, gen_per_sec);

  // --- Phase 2: oracle throughput (audits + differential).
  const std::vector<std::string> oracle_variants{"Baseline", "HARS-E",
                                                 "MP-HARS-E"};
  int oracle_failures = 0;
  const auto oracle_start = std::chrono::steady_clock::now();
  for (int i = 0; i < oracle_count; ++i) {
    GeneratorSpec spec =
        ScenarioGenerator::profile(profiles[static_cast<std::size_t>(i) %
                                            profiles.size()]);
    spec.seed = seed + 1000 + static_cast<std::uint64_t>(i);
    spec.horizon_s = duration_sec;
    ReproCase repro;
    repro.scenario = ScenarioGenerator(spec).generate();
    repro.variant = oracle_variants[static_cast<std::size_t>(i) %
                                    oracle_variants.size()];
    repro.seed = seed;
    repro.duration_sec = duration_sec;
    if (run_fuzz_case(repro, /*differential=*/true).failed) ++oracle_failures;
  }
  const double oracle_ms = ms_since(oracle_start);
  const double oracle_per_sec = oracle_count / (oracle_ms / 1e3);
  std::printf("oracle    %d runs in %.1f ms  (%.1f/s, %d failures)\n",
              oracle_count, oracle_ms, oracle_per_sec, oracle_failures);

  // --- Phase 3: shrink cost on seeded known-bug fixtures.
  int shrink_attempts_total = 0;
  std::size_t shrunk_events_total = 0;
  std::size_t shrunk_events_max = 0;
  int repros = 0;
  const auto shrink_start = std::chrono::steady_clock::now();
  for (int i = 0; i < shrink_count; ++i) {
    GeneratorSpec spec = ScenarioGenerator::profile("storm");
    spec.seed = seed + 2000 + static_cast<std::uint64_t>(i);
    spec.phase_min = 2.2;  // Guarantee a phase_gt2 violation to shrink.
    spec.phase_max = 3.5;
    const Scenario full = ScenarioGenerator(spec).generate();
    if (!injected_failure(full, "phase_gt2")) continue;
    ShrinkStats stats;
    const Scenario minimal = shrink_scenario(
        full,
        [](const Scenario& candidate) {
          return injected_failure(candidate, "phase_gt2").has_value();
        },
        ShrinkOptions{}, &stats);
    ++repros;
    shrink_attempts_total += stats.attempts;
    shrunk_events_total += minimal.events.size();
    shrunk_events_max = std::max(shrunk_events_max, minimal.events.size());
    std::printf("shrink    seed %llu: %zu -> %zu events in %d attempts\n",
                static_cast<unsigned long long>(spec.seed), full.events.size(),
                minimal.events.size(), stats.attempts);
  }
  const double shrink_ms = ms_since(shrink_start);
  const double mean_attempts =
      repros > 0 ? static_cast<double>(shrink_attempts_total) / repros : 0.0;
  const double mean_events =
      repros > 0 ? static_cast<double>(shrunk_events_total) / repros : 0.0;

  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"fuzz_suite\",\n"
      << "  \"generated\": " << generate_count << ",\n"
      << "  \"generated_events\": " << events_total << ",\n"
      << "  \"gen_wall_ms\": " << format_number(gen_ms) << ",\n"
      << "  \"gen_per_sec\": " << format_number(gen_per_sec) << ",\n"
      << "  \"oracle_runs\": " << oracle_count << ",\n"
      << "  \"oracle_wall_ms\": " << format_number(oracle_ms) << ",\n"
      << "  \"oracle_per_sec\": " << format_number(oracle_per_sec) << ",\n"
      << "  \"oracle_failures\": " << oracle_failures << ",\n"
      << "  \"shrink_repros\": " << repros << ",\n"
      << "  \"shrink_wall_ms\": " << format_number(shrink_ms) << ",\n"
      << "  \"shrink_mean_attempts\": " << format_number(mean_attempts) << ",\n"
      << "  \"shrink_mean_events\": " << format_number(mean_events) << ",\n"
      << "  \"shrink_max_events\": " << shrunk_events_max << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  // The suite doubles as a smoke gate: clean scenarios must pass the
  // oracles, and fixtures must shrink to tiny repros.
  if (oracle_failures != 0) return 1;
  if (repros > 0 && shrunk_events_max > 8) return 1;
  return out.good() ? 0 : 1;
}
