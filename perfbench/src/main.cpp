// hars_perfbench: the repository benchmark program. Normally started by
// perfbench/run.py, which builds it first:
//
//   hars_perfbench --workload steady|churn|sweep|live --seed N
//                  --seconds S --trace 0|1 [--assign-delay-ns NS]
//                  [--git-sha SHA] [--source-digest HEX]
//
// It sets the workload up at its seed, then runs operations back to back
// for S seconds, checking that every operation reproduces the first one's
// result records; between operations it repeats the cold set-up at fresh
// seeds, so set-up samples are spread over the run like the operations.
// Host times of operations and set-ups are corrected for co-tenant
// contention (host_speed.hpp).
// --trace 0 reports the end-to-end metrics; --trace 1 spends half the time
// untraced and half with the layer probes armed, adds the frozen-state
// batch microbenchmarks, and reports the per-layer metrics. The last line
// of standard output is the JSON result. See perfbench/README.md.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "batch.hpp"
#include "host_speed.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinMeasuredOps = 5;
// Set-ups get up to kSetupShare of a span's time, at least kMinSetups and
// at most kMaxSetups per run.
constexpr double kSetupShare = 0.2;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 100;
constexpr std::uint64_t kSetupSeedStride = 1'000'003;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t assign_delay_ns = 0;
  std::string git_sha = "none";
  std::string source_digest = "none";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hars_perfbench: " << why
            << "\nusage: hars_perfbench --workload steady|churn|sweep|live "
               "--seed N --seconds S --trace 0|1 [--assign-delay-ns NS] "
               "[--git-sha SHA] [--source-digest HEX]\n";
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& text) {
  std::int64_t value = 0;
  const auto r = std::from_chars(text.data(), text.data() + text.size(), value);
  if (r.ec != std::errc{} || r.ptr != text.data() + text.size() || value < 0) {
    usage("bad value for " + flag + ": \"" + text + "\"");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_int(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--assign-delay-ns") {
      args.assign_delay_ns = parse_int(flag, value);
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.seconds < 1) usage("--seconds must be at least 1");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile of `v`, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) return line.substr(key.size() + 1);
  }
  return "";
}

double peak_rss_mb() {
  return std::strtod(status_field("VmHWM").c_str(), nullptr) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::uint64_t fingerprint(const std::vector<std::string>& records) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& unit : records) {
    for (const char c : unit) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Check {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// What a span of operations measured; the first operation of a span is
/// a warm-up and only checked.
struct Span {
  /// sim_s per contention-corrected host second, per measured operation.
  std::vector<double> rates;
  std::vector<double> raw_rates;  ///< Same, uncorrected.
  ProbeStats probes;          ///< Merged over the measured operations.
  std::vector<double> case_ms;
  std::vector<double> worker_busy;
  std::int64_t measured = 0;
  double sim_s_per_s() const { return median(rates); }
};

/// Runs one workload: set-ups, spans of operations, and the record check
/// of every operation against the first.
class Runner {
 public:
  Runner(Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}

  /// One cold set-up, at the workload seed first and fresh seeds after;
  /// records its contention-corrected host time.
  void setup() {
    const std::uint64_t seed = seed_ + kSetupSeedStride * setup_s_.size();
    Metrics layer;
    double host_s = 0.0;
    const double quiet = quiet_factor(1, [&] {
      const std::int64_t t0 = now_ns();
      workload_.setup(seed, layer);
      host_s = static_cast<double>(now_ns() - t0) * 1e-9;
    });
    setup_s_.push_back(host_s * quiet);
    for (const auto& [name, value] : layer) setup_layers_[name].push_back(value);
  }

  /// Operations back to back until `seconds` have passed and at least
  /// kMinMeasuredOps followed the warm-up; set-ups fill up to kSetupShare
  /// of the time between them.
  Span span(bool traced, double seconds) {
    Span span;
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    double setup_spent_s = 0.0;
    for (bool warmup = true;; warmup = false) {
      OpResult op;
      const double quiet =
          quiet_factor(workload_.threads(), [&] { op = workload_.run(traced); });
      check(op);
      if (!warmup) {
        span.raw_rates.push_back(ratio(op.sim_s, op.host_s));
        span.rates.push_back(ratio(op.sim_s, op.host_s * quiet));
        span.probes.merge(op.probes);
        span.case_ms.insert(span.case_ms.end(), op.case_ms.begin(),
                            op.case_ms.end());
        span.worker_busy.push_back(op.worker_busy);
        ++span.measured;
      }
      const std::int64_t now = now_ns();
      if (now >= deadline && span.measured >= kMinMeasuredOps) break;
      if (setup_s_.size() < kMaxSetups &&
          setup_spent_s < kSetupShare * static_cast<double>(now - start) * 1e-9) {
        setup();
        setup_spent_s += setup_s_.back();
      }
    }
    return span;
  }

  const Check& checked() const { return check_; }
  const std::vector<std::string>& reference() const { return reference_; }
  const Outcomes& outcomes() const { return outcomes_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::map<std::string, std::vector<double>>& setup_layers() const {
    return setup_layers_;
  }

 private:
  /// Every unit must match the first operation's byte for byte; a unit
  /// that threw (empty text) counts as failed too.
  void check(const OpResult& op) {
    if (!have_reference_) {
      reference_ = op.records;
      outcomes_ = op.outcomes;
      have_reference_ = true;
    }
    for (std::size_t i = 0; i < op.records.size(); ++i) {
      ++check_.attempted;
      if (op.records[i].empty() || i >= reference_.size() ||
          op.records[i] != reference_[i]) {
        ++check_.failed;
      }
    }
  }

  Workload& workload_;
  std::uint64_t seed_;
  std::vector<double> setup_s_;
  std::map<std::string, std::vector<double>> setup_layers_;
  bool have_reference_ = false;
  std::vector<std::string> reference_;
  Outcomes outcomes_;
  Check check_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"sim_s_per_s", "sim_s/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},      {"ok_ratio", "ratio"},
      {"perf_per_watt", "1/W"},   {"norm_perf", "ratio"},
      {"in_window", "ratio"},     {"manager_cpu_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"hmp.tick_ns", "ns"},
      {"hmp.tick_ns.p50", "ns"},
      {"hmp.tick_ns.p99", "ns"},
      {"hmp.engine_self_ns", "ns"},
      {"hmp.sensor_ns", "ns"},
      {"apps.refresh_runnable_ns", "ns"},
      {"sched.assign_ns", "ns"},
      {"sched.assign_stable_ns", "ns"},
      {"sched.assign_full_ns", "ns"},
      {"sched.placement_change_ratio", "ratio"},
      {"sched.migrations", "count"},
      {"core.search_incremental_ns", "ns"},
      {"core.search_d1_ns", "ns"},
      {"core.search_d1_candidates", "count"},
      {"core.search_exhaustive_ns", "ns"},
      {"core.search_tabu_ns", "ns"},
      {"core.search_ns_per_candidate", "ns"},
      {"core.search_exhaustive_candidates", "count"},
      {"core.perf_estimate_ns", "ns"},
      {"core.power_estimate_ns", "ns"},
      {"core.manager_tick_ns", "ns"},
      {"core.adapt_ns.p50", "ns"},
      {"core.adapt_ns.p99", "ns"},
      {"core.adapt_modeled_us", "us"},
      {"core.adapt_measured_over_modeled", "ratio"},
      {"core.searches", "count"},
      {"core.candidates", "count"},
      {"core.moves", "count"},
      {"core.move_ratio", "ratio"},
      {"mphars.manager_tick_ns", "ns"},
      {"mphars.adapt_ns.p50", "ns"},
      {"mphars.adapt_ns.p99", "ns"},
      {"mphars.searches", "count"},
      {"mphars.moves", "count"},
      {"scenario.generate_ms", "ms"},
      {"scenario.spawns", "count"},
      {"scenario.events", "count"},
      {"exp.calibrate_ms", "ms"},
      {"exp.calibrations", "count"},
      {"exp.static_optimal_ms", "ms"},
      {"exp.profile_power_ms", "ms"},
      {"sweep.case_ms.p50", "ms"},
      {"sweep.case_ms.p99", "ms"},
      {"sweep.worker_busy_ratio", "ratio"},
      {"backend.setup_ms", "ms"},
      {"backend.dvfs_ns", "ns"},
      {"backend.place_ns", "ns"},
      {"backend.hotplug_ns", "ns"},
      {"backend.tick_ns", "ns"},
      {"backend.dvfs_writes", "count"},
      {"backend.placements", "count"},
      {"bench.trace_overhead_pct", "%"},
  };
  return specs;
}

/// Per-layer metrics of the traced span, per operation where a count.
void add_traced_layers(const Span& traced, Metrics& out) {
  const ProbeStats& total = traced.probes;
  const auto ops = static_cast<double>(traced.measured);

  const double assign_mean = ratio(total.assign_ns_sum, total.assign_calls);
  const double manager_ns = total.core.tick_ns_sum + total.mphars.tick_ns_sum;
  out["hmp.tick_ns"] = total.tick_ns.mean();
  out["hmp.tick_ns.p50"] = total.tick_ns.quantile(0.50);
  out["hmp.tick_ns.p99"] = total.tick_ns.quantile(0.99);
  out["hmp.engine_self_ns"] =
      total.tick_ns.count() > 0
          ? total.tick_ns.mean() - assign_mean -
                ratio(manager_ns, total.assign_calls)
          : 0.0;
  out["sched.assign_ns"] = assign_mean;
  out["sched.placement_change_ratio"] =
      ratio(total.placement_changes, total.assign_calls);
  out["sched.migrations"] = total.migrations / ops;

  const ManagerStats& core = total.core;
  const double core_adapt_ns = core.adapt_ns.mean();
  const double core_modeled_us = ratio(core.modeled_adapt_us, core.searches);
  out["core.manager_tick_ns"] = ratio(core.tick_ns_sum, core.ticks);
  out["core.adapt_ns.p50"] = core.adapt_ns.quantile(0.50);
  out["core.adapt_ns.p99"] = core.adapt_ns.quantile(0.99);
  out["core.adapt_modeled_us"] = core_modeled_us;
  out["core.adapt_measured_over_modeled"] =
      ratio(core_adapt_ns * 1e-3, core_modeled_us);
  out["core.searches"] = core.searches / ops;
  out["core.candidates"] = core.candidates / ops;
  out["core.moves"] = core.moves / ops;
  out["core.move_ratio"] = ratio(core.moves, core.searches);

  const ManagerStats& mp = total.mphars;
  out["mphars.manager_tick_ns"] = ratio(mp.tick_ns_sum, mp.ticks);
  out["mphars.adapt_ns.p50"] = mp.adapt_ns.quantile(0.50);
  out["mphars.adapt_ns.p99"] = mp.adapt_ns.quantile(0.99);
  out["mphars.searches"] = mp.searches / ops;
  out["mphars.moves"] = mp.moves / ops;

  out["sweep.case_ms.p50"] = percentile(traced.case_ms, 50);
  out["sweep.case_ms.p99"] = percentile(traced.case_ms, 99);
  out["sweep.worker_busy_ratio"] = median(traced.worker_busy);

  out["backend.dvfs_ns"] = ratio(total.dvfs_ns_sum, total.dvfs_writes);
  out["backend.place_ns"] = ratio(total.place_ns_sum, total.placements);
  out["backend.tick_ns"] =
      ratio(total.backend_tick_ns_sum, total.backend_ticks);
  out["backend.dvfs_writes"] = total.dvfs_writes / ops;
  out["backend.placements"] = total.placements / ops;
}

void print_result(bool correct, const Check& check,
                  const std::vector<MetricSpec>& specs, const Metrics& values) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(check.attempted) +
                     ", \"failed\": " + std::to_string(check.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::cout << "metric " << spec.name << " " << fmt(value) << " "
              << spec.unit << "\n";
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + spec.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(const Args& args) {
  Options options;
  options.seed = args.seed;
  options.assign_delay_ns = args.assign_delay_ns;
  std::unique_ptr<Workload> workload = make_workload(args.workload, options);
  if (workload == nullptr) usage("unknown workload \"" + args.workload + "\"");
  install_probes();

  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " assign_delay_ns=" << args.assign_delay_ns << "\n"
            << "env cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " git=" << args.git_sha
            << " source=" << args.source_digest << "\n";

  Runner runner(*workload, args.seed);
  runner.setup();
  Metrics values;
  const auto report = [](const char* name, const Span& span) {
    std::cout << "span " << name << " measured=" << span.measured
              << " sim_s_per_s p10=" << fmt(percentile(span.rates, 10))
              << " p50=" << fmt(median(span.rates))
              << " p90=" << fmt(percentile(span.rates, 90))
              << " uncorrected p50=" << fmt(median(span.raw_rates)) << "\n";
  };
  if (!args.trace) {
    const Span plain = runner.span(false, args.seconds);
    report("untraced", plain);
    while (runner.setup_s().size() < kMinSetups) runner.setup();
    const Outcomes& o = runner.outcomes();
    values["sim_s_per_s"] = plain.sim_s_per_s();
    values["setup_s"] = median(runner.setup_s());
    values["perf_per_watt"] = o.perf_per_watt;
    values["norm_perf"] = o.norm_perf;
    values["in_window"] = o.in_window;
    values["manager_cpu_pct"] = o.manager_cpu_pct;
  } else {
    const Span plain = runner.span(false, args.seconds / 2);
    const Span traced = runner.span(true, args.seconds / 2);
    report("untraced", plain);
    report("traced", traced);
    while (runner.setup_s().size() < kMinSetups) runner.setup();
    for (const auto& [name, reps] : runner.setup_layers()) {
      values[name] = median(reps);
    }
    add_traced_layers(traced, values);
    run_batches(values);
    values["bench.trace_overhead_pct"] =
        100.0 * (ratio(plain.sim_s_per_s(), traced.sim_s_per_s()) - 1.0);
  }
  const Check& check = runner.checked();
  values["peak_rss_mb"] = peak_rss_mb();
  values["ok_ratio"] =
      ratio(static_cast<double>(check.attempted - check.failed),
            static_cast<double>(check.attempted));

  std::cout << "fingerprint " << args.workload << " " << std::hex
            << fingerprint(runner.reference()) << std::dec
            << " units=" << runner.reference().size() << "\n"
            << "checked attempted=" << check.attempted
            << " failed=" << check.failed
            << " setups=" << runner.setup_s().size() << "\n";
  print_result(check.failed == 0, check,
               args.trace ? per_layer_metrics() : end_to_end_metrics(),
               values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "hars_perfbench: " << error.what() << "\n";
    return 1;
  }
}
