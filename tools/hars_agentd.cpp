// hars_agentd: the HARS runtime daemon for live platforms.
//
// The deployment half of the Backend HAL: where hars_sim evaluates the
// runtime versions in the discrete-time simulator, hars_agentd runs the
// same managers against a live backend — the real machine's sysfs
// (--backend linux) or the CI-testable fixture tree (--backend
// mock_linux, the default, so the tool is exercisable anywhere). The
// eight runtime versions resolve through the same VariantRegistry, so
// any of them can manage the live platform.
//
//   hars_agentd --dry-run --backend linux     # probe only, never writes
//   hars_agentd --variant HARS-E --duration 30
//   hars_agentd --backend linux --variant CONS-I --target 20:24
//
// --dry-run constructs the backend probe-only (BackendOptions::dry_run:
// no sysfs writes, no sched_setaffinity), prints the probed topology and
// capability set, and exits — safe on any machine, including CI runners
// without cpufreq.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend_registry.hpp"
#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/platform_spec.hpp"
#include "util/common.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

void list_backends() {
  std::printf("%-12s %s\n", "backend", "description");
  for (const BackendEntry& e : BackendRegistry::instance().entries()) {
    std::printf("%-12s %s\n", e.name.c_str(), e.description.c_str());
  }
}

bool parse_backend(const std::string& name) {
  if (BackendRegistry::instance().known(name)) return true;
  std::fprintf(stderr, "unknown backend %s; known:", name.c_str());
  for (const std::string& known : BackendRegistry::instance().names()) {
    std::fprintf(stderr, " %s", known.c_str());
  }
  std::fprintf(stderr, "\n");
  return false;
}

bool parse_target(const std::string& text, PerfTarget* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  out->min = std::atof(text.substr(0, colon).c_str());
  out->max = std::atof(text.substr(colon + 1).c_str());
  return out->is_valid_window();
}

/// The --dry-run report: construct the backend probe-only and print what
/// it found. Returns the process exit code.
int dry_run_probe(const std::string& backend_name,
                  const BackendOptions& options) {
  std::unique_ptr<Backend> backend;
  try {
    backend = BackendRegistry::instance().get_live(backend_name, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe failed: %s\n", e.what());
    return 1;
  }
  const BackendCaps caps = backend->caps();
  std::printf("backend          %s (dry run; no writes issued)\n",
              backend->name());
  std::printf("capabilities     dvfs=%d placement=%d hotplug=%d energy=%d "
              "core_stats=%d\n",
              caps.dvfs, caps.placement, caps.hotplug, caps.energy,
              caps.core_stats);
  const Machine& m = backend->topology();
  for (ClusterId c = 0; c < m.num_clusters(); ++c) {
    const ClusterSpec& spec = m.spec().clusters[c];
    std::printf("cluster %-8d %s %dx (ipc %.2f) %.2f-%.2f GHz, %d levels, "
                "now %.2f GHz\n",
                c, core_type_name(spec.type), spec.core_count, spec.ipc,
                m.freq_ghz_at_level(c, 0),
                m.freq_ghz_at_level(c, m.max_freq_level(c)),
                m.max_freq_level(c) + 1, m.freq_ghz(c));
  }
  std::printf("online           %d of %d cores\n", m.online_mask().count(),
              m.num_cores());
  std::printf("energy           %.3f J since probe (%s)\n", backend->energy_j(),
              caps.energy ? "metered" : "modeled");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend_name = "mock_linux";
  std::string variant = "HARS-E";
  std::vector<std::string> bench_names;
  std::string platform = "exynos5422";
  std::string target_text;
  BackendOptions options;
  double duration_sec = 30.0;
  double tick_ms = 0.0;
  double fraction = 0.50;
  int threads = 4;
  std::uint64_t seed = 1;
  bool list = false;
  bool dry_run = false;

  std::string versions;
  for (const std::string& name : VariantRegistry::instance().names()) {
    if (!versions.empty()) versions += ", ";
    versions += name;
  }
  flags::Parser cli("hars_agentd");
  cli.flag("--backend NAME", &backend_name,
           "live backend (default mock_linux); \"sim\" is\n"
           "hars_sim's job; --list-backends to enumerate")
      .flag("--list-backends", &list, "print the backend catalogue and exit")
      .flag("--variant NAME", &variant,
            "runtime version (default HARS-E): " + versions)
      .flag("--version NAME", &variant, "same as --variant")
      .flag("--bench NAME", &bench_names,
            "workload shape; repeatable (default swaptions)")
      .flag("--duration SEC", &duration_sec, "managed run length (default 30)")
      .flag("--tick MS", &tick_ms,
            "manager epoch override (default: backend's)")
      .flag("--fixture FILE", &options.fixture,
            "sysfs fixture for mock_linux (default: built-in\n"
            "exynos5422 tree; see FILE_FORMATS.md)")
      .flag("--sysfs-root DIR", &options.sysfs_root,
            "sysfs root for linux (default /)")
      .flag("--platform NAME", &platform,
            "platform whose power parameters graft onto the\n"
            "probed topology (default exynos5422)")
      .flag("--target MIN:MAX", &target_text,
            "explicit heartbeat window for every workload\n"
            "(default: derived from a probe slice)")
      .flag("--target-fraction F", &fraction,
            "derived-target fraction (default 0.5)")
      .flag("--threads N", &threads, "threads per workload (default 4)")
      .flag("--seed N", &seed, "RNG seed (default 1)")
      .flag("--audit", &options.audit, "run the managers' debug result audits")
      .flag("--dry-run", &dry_run, "probe the platform read-only and exit");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }
  if (list) {
    list_backends();
    return 0;
  }
  if (!parse_backend(backend_name)) return 2;
  if (backend_name == "sim") {
    std::fprintf(stderr,
                 "hars_agentd drives live platforms; use hars_sim for "
                 "simulation\n");
    return 2;
  }
  if (VariantRegistry::instance().find(variant) == nullptr) {
    std::fprintf(stderr, "unknown variant %s\n", variant.c_str());
    return 2;
  }
  std::vector<ParsecBenchmark> benches;
  for (const std::string& name : bench_names) {
    const std::optional<ParsecBenchmark> bench = parse_parsec_benchmark(name);
    if (!bench) {
      std::fprintf(stderr, "unknown benchmark %s\n", name.c_str());
      return 2;
    }
    benches.push_back(*bench);
  }
  if (PlatformRegistry::instance().find(platform) == nullptr) {
    std::fprintf(stderr, "unknown platform %s; known:", platform.c_str());
    for (const std::string& known : PlatformRegistry::instance().names()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  options.platform = PlatformRegistry::instance().get(platform);
  options.tick_us = static_cast<TimeUs>(tick_ms * 1000.0);
  std::optional<PerfTarget> target;
  if (cli.given("--target")) {
    PerfTarget t;
    if (!parse_target(target_text, &t)) {
      std::fprintf(stderr,
                   "--target wants MIN:MAX with 0 <= MIN <= MAX, MAX > 0\n");
      return 2;
    }
    target = t;
  }

  if (dry_run) {
    options.dry_run = true;
    return dry_run_probe(backend_name, options);
  }

  if (benches.empty()) benches.push_back(ParsecBenchmark::kSwaptions);

  ExperimentBuilder builder;
  builder.backend(backend_name, options)
      .platform(*options.platform)
      .variant(variant)
      .target_fraction(fraction)
      .duration_sec(duration_sec)
      .threads(threads)
      .seed(seed);
  for (ParsecBenchmark bench : benches) {
    builder.app(bench);
    if (target) builder.target(*target);
  }

  ExperimentResult result;
  try {
    result = builder.build().run();
  } catch (const ExperimentConfigError& error) {
    std::fprintf(stderr, "invalid configuration: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "live run failed: %s\n", error.what());
    return 1;
  }

  std::printf("backend          %s\n", backend_name.c_str());
  std::printf("variant          %s\n", variant.c_str());
  for (const AppRunResult& app : result.apps) {
    const RunMetrics& m = app.metrics;
    std::printf("app              %s\n", app.label.c_str());
    std::printf("  target         %.2f..%.2f hb/s\n", app.target.min,
                app.target.max);
    std::printf("  rate           %.2f hb/s (%lld beats)\n", m.avg_rate_hps,
                static_cast<long long>(m.heartbeats));
    std::printf("  norm perf      %.3f\n", m.norm_perf);
    std::printf("  in-window      %.1f%%\n", 100.0 * m.in_window_fraction);
  }
  std::printf("avg power        %.3f W\n", result.avg_power_w);
  std::printf("adaptations      %lld\n",
              static_cast<long long>(result.adaptations));
  if (result.final_state) {
    std::printf("final state      B%d@L%d L%d@L%d\n",
                result.final_state->big_cores, result.final_state->big_freq,
                result.final_state->little_cores,
                result.final_state->little_freq);
  }
  return 0;
}
