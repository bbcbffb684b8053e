#include "scenario/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "sweep/result_sink.hpp"  // format_number
#include "util/rng.hpp"

namespace hars {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ScenarioError("generator: " + message);
}

/// Event times land on whole milliseconds so the DSL round-trip is
/// trivially exact and repro files stay human-readable.
TimeUs round_ms(double seconds) {
  return static_cast<TimeUs>(std::llround(seconds * 1e3)) * kUsPerMs;
}

/// Triangle wave in [-1, 1] with period 1 (exact arithmetic; the diurnal
/// modulation deliberately avoids libm transcendentals whose last bits
/// vary across libm builds).
double triangle(double x) {
  const double p = x - std::floor(x);
  return 1.0 - 4.0 * std::abs(p - 0.5);
}

/// Keep generated payload numbers short in the CSV.
double round3(double v) { return std::round(v * 1e3) / 1e3; }

}  // namespace

void GeneratorSpec::validate() const {
  if (profile.empty()) fail("empty profile name");
  if (!(horizon_s > 0.0)) fail("horizon must be > 0");
  if (arrival_rate_hz < 0.0) fail("arrival rate must be >= 0");
  if (rush_amplitude < 0.0 || rush_amplitude >= 1.0) {
    fail("rush amplitude must be in [0, 1)");
  }
  if (!(rush_period_s > 0.0)) fail("rush period must be > 0");
  if (initial_apps < 1) fail("initial_apps must be >= 1");
  if (max_live_apps < initial_apps) fail("max_live_apps < initial_apps");
  if (!(lifetime_min_s > 0.0) || lifetime_max_s < lifetime_min_s) {
    fail("lifetime range must satisfy 0 < min <= max");
  }
  if (!(lifetime_alpha > 0.0)) fail("lifetime alpha must be > 0");
  if (depart_prob < 0.0 || depart_prob > 1.0) {
    fail("depart probability must be in [0, 1]");
  }
  if (threads_min < 0 || threads_max < threads_min) {
    fail("thread range must satisfy 0 <= min <= max");
  }
  if (fraction_min < 0.0 || fraction_max < fraction_min ||
      fraction_max > 1.0 || (fraction_max > 0.0 && !(fraction_min > 0.0))) {
    fail("fraction range must satisfy 0 < min <= max <= 1 (or 0,0)");
  }
  if (storm_rate_hz < 0.0) fail("storm rate must be >= 0");
  if (storm_len < 1) fail("storm length must be >= 1");
  if (!(storm_gap_s > 0.0)) fail("storm gap must be > 0");
  if (!(phase_min > 0.0) || phase_max < phase_min) {
    fail("phase range must satisfy 0 < min <= max");
  }
  if (hotplug_rate_hz < 0.0) fail("hotplug rate must be >= 0");
  if (!(outage_min_s > 0.0) || outage_max_s < outage_min_s) {
    fail("outage range must satisfy 0 < min <= max");
  }
  if (max_core < 1 || max_core >= CpuMask::kMaxCpus) {
    fail("max_core must be in [1, " + std::to_string(CpuMask::kMaxCpus - 1) +
         "]");
  }
  if (max_offline_cores < 1 || max_offline_cores > max_core) {
    fail("max_offline_cores must be in [1, max_core]");
  }
  if (retarget_rate_hz < 0.0) fail("retarget rate must be >= 0");
  if (!(target_min_hps > 0.0) || target_max_hps < target_min_hps) {
    fail("target range must satisfy 0 < min <= max");
  }
}

ScenarioGenerator::ScenarioGenerator(GeneratorSpec spec)
    : spec_(std::move(spec)) {
  spec_.validate();
}

Scenario ScenarioGenerator::generate() const {
  const GeneratorSpec& g = spec_;
  // Independent streams per process: adding, say, storms to a spec never
  // perturbs the arrival sequence of the same seed.
  Rng root(g.seed);
  Rng arrivals = root.fork(1);
  Rng lifetimes = root.fork(2);
  Rng shape = root.fork(3);
  Rng storms = root.fork(4);
  Rng plugs = root.fork(5);
  Rng targets = root.fork(6);

  const TimeUs horizon = round_ms(g.horizon_s);
  const std::vector<ParsecBenchmark> benches =
      g.benches.empty() ? all_parsec_benchmarks() : g.benches;

  Scenario s;
  s.name = canonical_name(g);

  struct GenApp {
    std::string id;
    TimeUs spawn = 0;
    TimeUs kill = -1;  ///< -1: runs to the end.
  };
  std::vector<GenApp> apps;

  const auto exp_wait = [](Rng& rng, double rate) {
    return -std::log(1.0 - rng.next_double()) / rate;
  };

  // Bounded Pareto inverse CDF: x = L * (1 - u * (1 - (L/H)^a))^(-1/a).
  const auto sample_lifetime = [&]() {
    const double a = g.lifetime_alpha;
    const double ratio = std::pow(g.lifetime_min_s / g.lifetime_max_s, a);
    const double u = lifetimes.next_double();
    return g.lifetime_min_s * std::pow(1.0 - u * (1.0 - ratio), -1.0 / a);
  };

  const auto alive_at = [&](TimeUs t) {
    std::vector<const GenApp*> out;
    for (const GenApp& a : apps) {
      if (a.spawn <= t && (a.kill < 0 || a.kill > t)) out.push_back(&a);
    }
    return out;
  };

  const auto add_app = [&](TimeUs t) {
    GenApp app;
    // Built with += : GCC 12's -Wrestrict false-positives on
    // operator+(const char*, std::string&&) here.
    app.id = "g";
    app.id += std::to_string(apps.size());
    app.spawn = t;

    ScenarioEvent spawn;
    spawn.time = t;
    spawn.kind = ScenarioEventKind::kSpawn;
    spawn.app = app.id;
    spawn.spawn.bench =
        benches[static_cast<std::size_t>(shape.uniform_int(
            0, static_cast<int>(benches.size()) - 1))];
    if (g.threads_max > 0) {
      spawn.spawn.threads = shape.uniform_int(g.threads_min, g.threads_max);
    }
    if (g.fraction_max > 0.0) {
      spawn.spawn.fraction =
          round3(shape.uniform(g.fraction_min, g.fraction_max));
    }
    s.events.push_back(std::move(spawn));

    if (lifetimes.next_double() < g.depart_prob) {
      TimeUs kill = t + std::max<TimeUs>(round_ms(sample_lifetime()), kUsPerMs);
      if (kill < horizon) {
        app.kill = kill;
        ScenarioEvent e;
        e.time = kill;
        e.kind = ScenarioEventKind::kKill;
        e.app = app.id;
        s.events.push_back(std::move(e));
      }
    }
    apps.push_back(std::move(app));
  };

  // --- Arrivals: initial apps, then a (possibly diurnal) Poisson stream
  // realized by thinning against the peak rate.
  for (int i = 0; i < g.initial_apps; ++i) add_app(0);
  const double peak_rate = g.arrival_rate_hz * (1.0 + g.rush_amplitude);
  if (peak_rate > 0.0) {
    double t = 0.0;
    while (true) {
      t += exp_wait(arrivals, peak_rate);
      if (t >= g.horizon_s) break;
      const double rate_t =
          g.arrival_rate_hz *
          (1.0 + g.rush_amplitude * triangle(t / g.rush_period_s));
      if (arrivals.next_double() * peak_rate > rate_t) continue;  // thinned
      const TimeUs tu = std::max<TimeUs>(round_ms(t), kUsPerMs);
      if (static_cast<int>(alive_at(tu).size()) >= g.max_live_apps) continue;
      add_app(tu);
    }
  }

  // --- Phase-change storms: alternating heavy/nominal flips against one
  // app alive for the storm's span.
  if (g.storm_rate_hz > 0.0) {
    double t = 0.0;
    while (true) {
      t += exp_wait(storms, g.storm_rate_hz);
      if (t >= g.horizon_s) break;
      const TimeUs tu = std::max<TimeUs>(round_ms(t), kUsPerMs);
      const std::vector<const GenApp*> alive = alive_at(tu);
      if (alive.empty()) continue;
      const GenApp& victim = *alive[static_cast<std::size_t>(
          storms.uniform_int(0, static_cast<int>(alive.size()) - 1))];
      const double scale = round3(storms.uniform(g.phase_min, g.phase_max));
      const TimeUs gap = std::max<TimeUs>(round_ms(g.storm_gap_s), kUsPerMs);
      // A flip on a departed app would be invalid: stop at the kill.
      const TimeUs limit =
          std::min(horizon, victim.kill < 0 ? horizon : victim.kill - kUsPerMs);
      for (int j = 0; j < g.storm_len; ++j) {
        const TimeUs ft = tu + j * gap;
        if (ft > limit) break;
        ScenarioEvent e;
        e.time = ft;
        e.kind = ScenarioEventKind::kSetPhase;
        e.app = victim.id;
        e.phase_scale = (j % 2 == 0) ? scale : 1.0;
        s.events.push_back(std::move(e));
      }
    }
  }

  // --- Hotplug cascades: a contiguous block of non-manager cores fails,
  // then recovers; cascades are serialized so outages never interleave.
  if (g.hotplug_rate_hz > 0.0) {
    double t = 0.0;
    double busy_until = 0.0;
    while (true) {
      t += exp_wait(plugs, g.hotplug_rate_hz);
      if (t >= g.horizon_s) break;
      if (t < busy_until) continue;
      const int count =
          std::min(plugs.uniform_int(1, g.max_offline_cores), g.max_core);
      const int start = plugs.uniform_int(1, g.max_core - count + 1);
      CpuMask mask;
      for (int c = start; c < start + count; ++c) {
        mask.set(static_cast<CoreId>(c));
      }
      const double outage = plugs.uniform(g.outage_min_s, g.outage_max_s);
      const TimeUs off_t = std::max<TimeUs>(round_ms(t), kUsPerMs);
      ScenarioEvent off;
      off.time = off_t;
      off.kind = ScenarioEventKind::kOfflineCores;
      off.cores = mask;
      s.events.push_back(std::move(off));
      if (t + outage < g.horizon_s) {
        ScenarioEvent on;
        on.time = std::max<TimeUs>(round_ms(t + outage), off_t + kUsPerMs);
        on.kind = ScenarioEventKind::kOnlineCores;
        on.cores = mask;
        s.events.push_back(std::move(on));
      }  // else: the run ends with the cores still offline.
      busy_until = t + outage + 0.5;
    }
  }

  // --- Target renegotiation: alive apps get fresh ±10% windows.
  if (g.retarget_rate_hz > 0.0) {
    double t = 0.0;
    while (true) {
      t += exp_wait(targets, g.retarget_rate_hz);
      if (t >= g.horizon_s) break;
      const TimeUs tu = std::max<TimeUs>(round_ms(t), kUsPerMs);
      std::vector<const GenApp*> alive = alive_at(tu);
      // A retarget on an app about to depart is fine; one after the kill
      // is not — filter to apps still alive at the event time.
      alive.erase(std::remove_if(alive.begin(), alive.end(),
                                 [&](const GenApp* a) {
                                   return a->kill >= 0 && a->kill <= tu;
                                 }),
                  alive.end());
      if (alive.empty()) continue;
      const GenApp& app = *alive[static_cast<std::size_t>(
          targets.uniform_int(0, static_cast<int>(alive.size()) - 1))];
      const double center =
          round3(targets.uniform(g.target_min_hps, g.target_max_hps));
      ScenarioEvent e;
      e.time = tu;
      e.kind = ScenarioEventKind::kSetTarget;
      e.app = app.id;
      e.target = PerfTarget::around(center, 0.10);
      // round3 keeps the serialized window free of fp noise like
      // 4.182200000000001 (corpus files are read by humans).
      e.target.min = round3(e.target.min);
      e.target.max = round3(e.target.max);
      s.events.push_back(std::move(e));
    }
  }

  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.time < b.time;
                   });
  s.validate();
  return s;
}

// --- Profiles -----------------------------------------------------------

std::vector<std::string> ScenarioGenerator::profiles() {
  return {"poisson", "rush", "storm", "hotplug", "retarget", "churn", "mixed"};
}

GeneratorSpec ScenarioGenerator::profile(std::string_view name) {
  GeneratorSpec g;
  g.profile = std::string(name);
  if (name == "poisson") {
    // The defaults: a flat Poisson arrival stream with departures.
  } else if (name == "rush") {
    g.arrival_rate_hz = 0.12;
    g.rush_amplitude = 0.9;
    g.rush_period_s = 25.0;
    g.max_live_apps = 4;
  } else if (name == "storm") {
    g.arrival_rate_hz = 0.05;
    g.depart_prob = 0.6;
    g.storm_rate_hz = 0.08;
    g.storm_len = 4;
  } else if (name == "hotplug") {
    g.arrival_rate_hz = 0.08;
    g.hotplug_rate_hz = 0.05;
  } else if (name == "retarget") {
    g.arrival_rate_hz = 0.06;
    g.retarget_rate_hz = 0.25;
  } else if (name == "churn") {
    g.arrival_rate_hz = 0.35;
    g.max_live_apps = 4;
    g.lifetime_min_s = 1.5;
    g.lifetime_max_s = 12.0;
    g.lifetime_alpha = 1.1;
    g.depart_prob = 0.95;
    g.hotplug_rate_hz = 0.03;
  } else if (name == "mixed") {
    g.arrival_rate_hz = 0.15;
    g.rush_amplitude = 0.5;
    g.max_live_apps = 4;
    g.storm_rate_hz = 0.03;
    g.hotplug_rate_hz = 0.02;
    g.retarget_rate_hz = 0.1;
  } else {
    std::string known;
    for (const std::string& p : profiles()) {
      known += ' ';
      known += p;
    }
    fail("unknown profile \"" + std::string(name) + "\"; known:" + known);
  }
  return g;
}

// --- gen: names ---------------------------------------------------------

namespace {

std::uint64_t parse_u64(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (end == value.c_str() || *end != '\0') {
    fail("malformed " + key + " \"" + value + "\"");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_num(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    fail("malformed " + key + " \"" + value + "\"");
  }
  return v;
}

int parse_int(const std::string& value, const std::string& key) {
  return static_cast<int>(parse_num(value, key));
}

std::vector<ParsecBenchmark> parse_benches(const std::string& value) {
  std::vector<ParsecBenchmark> out;
  std::size_t from = 0;
  while (from <= value.size()) {
    const std::size_t plus = value.find('+', from);
    const std::string code = value.substr(
        from, plus == std::string::npos ? std::string::npos : plus - from);
    const std::optional<ParsecBenchmark> bench = parse_parsec_benchmark(code);
    if (!bench) fail("unknown bench \"" + code + "\" in benches=");
    out.push_back(*bench);
    if (plus == std::string::npos) break;
    from = plus + 1;
  }
  if (out.empty()) fail("empty benches=");
  return out;
}

std::string format_benches(const std::vector<ParsecBenchmark>& benches) {
  std::string out;
  for (ParsecBenchmark b : benches) {
    if (!out.empty()) out += '+';
    out += parsec_code(b);
  }
  return out;
}

}  // namespace

bool ScenarioGenerator::is_generated_name(std::string_view name) {
  return name.substr(0, 4) == "gen:";
}

GeneratorSpec ScenarioGenerator::parse_name(std::string_view name) {
  if (!is_generated_name(name)) {
    fail("not a generated-scenario name (want gen:PROFILE[:k=v;...]): \"" +
         std::string(name) + "\"");
  }
  const std::string_view rest = name.substr(4);
  const std::size_t colon = rest.find(':');
  const std::string_view profile_name =
      colon == std::string_view::npos ? rest : rest.substr(0, colon);
  GeneratorSpec g = profile(profile_name);
  if (colon == std::string_view::npos) return g;

  const std::string params(rest.substr(colon + 1));
  std::size_t from = 0;
  while (from <= params.size()) {
    const std::size_t semi = params.find(';', from);
    const std::string pair = params.substr(
        from, semi == std::string::npos ? std::string::npos : semi - from);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("expected key=value, got \"" + pair + "\" in \"" +
           std::string(name) + "\"");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "seed") {
      g.seed = parse_u64(value, key);
    } else if (key == "horizon") {
      g.horizon_s = parse_num(value, key);
    } else if (key == "rate") {
      g.arrival_rate_hz = parse_num(value, key);
    } else if (key == "rush") {
      g.rush_amplitude = parse_num(value, key);
    } else if (key == "rush_period") {
      g.rush_period_s = parse_num(value, key);
    } else if (key == "init") {
      g.initial_apps = parse_int(value, key);
    } else if (key == "max_live") {
      g.max_live_apps = parse_int(value, key);
    } else if (key == "life_min") {
      g.lifetime_min_s = parse_num(value, key);
    } else if (key == "life_max") {
      g.lifetime_max_s = parse_num(value, key);
    } else if (key == "alpha") {
      g.lifetime_alpha = parse_num(value, key);
    } else if (key == "depart") {
      g.depart_prob = parse_num(value, key);
    } else if (key == "threads_min") {
      g.threads_min = parse_int(value, key);
    } else if (key == "threads_max") {
      g.threads_max = parse_int(value, key);
    } else if (key == "frac_min") {
      g.fraction_min = parse_num(value, key);
    } else if (key == "frac_max") {
      g.fraction_max = parse_num(value, key);
    } else if (key == "benches") {
      g.benches = parse_benches(value);
    } else if (key == "storm") {
      g.storm_rate_hz = parse_num(value, key);
    } else if (key == "storm_len") {
      g.storm_len = parse_int(value, key);
    } else if (key == "storm_gap") {
      g.storm_gap_s = parse_num(value, key);
    } else if (key == "phase_min") {
      g.phase_min = parse_num(value, key);
    } else if (key == "phase_max") {
      g.phase_max = parse_num(value, key);
    } else if (key == "hotplug") {
      g.hotplug_rate_hz = parse_num(value, key);
    } else if (key == "outage_min") {
      g.outage_min_s = parse_num(value, key);
    } else if (key == "outage_max") {
      g.outage_max_s = parse_num(value, key);
    } else if (key == "max_offline") {
      g.max_offline_cores = parse_int(value, key);
    } else if (key == "max_core") {
      g.max_core = parse_int(value, key);
    } else if (key == "retarget") {
      g.retarget_rate_hz = parse_num(value, key);
    } else if (key == "target_min") {
      g.target_min_hps = parse_num(value, key);
    } else if (key == "target_max") {
      g.target_max_hps = parse_num(value, key);
    } else {
      fail("unknown generator key \"" + key + "\" in \"" + std::string(name) +
           "\"");
    }
    if (semi == std::string::npos) break;
    from = semi + 1;
  }
  g.validate();
  return g;
}

std::string ScenarioGenerator::canonical_name(const GeneratorSpec& spec) {
  const GeneratorSpec base = profile(spec.profile);
  std::string params;
  const auto emit = [&params](const std::string& key, const std::string& v) {
    if (!params.empty()) params += ';';
    params += key + "=" + v;
  };
  const auto num = [&emit](const char* key, double v, double base_v) {
    if (v != base_v) emit(key, format_number(v));
  };
  const auto integer = [&emit](const char* key, int v, int base_v) {
    if (v != base_v) emit(key, std::to_string(v));
  };
  if (spec.seed != base.seed) emit("seed", std::to_string(spec.seed));
  num("horizon", spec.horizon_s, base.horizon_s);
  num("rate", spec.arrival_rate_hz, base.arrival_rate_hz);
  num("rush", spec.rush_amplitude, base.rush_amplitude);
  num("rush_period", spec.rush_period_s, base.rush_period_s);
  integer("init", spec.initial_apps, base.initial_apps);
  integer("max_live", spec.max_live_apps, base.max_live_apps);
  num("life_min", spec.lifetime_min_s, base.lifetime_min_s);
  num("life_max", spec.lifetime_max_s, base.lifetime_max_s);
  num("alpha", spec.lifetime_alpha, base.lifetime_alpha);
  num("depart", spec.depart_prob, base.depart_prob);
  integer("threads_min", spec.threads_min, base.threads_min);
  integer("threads_max", spec.threads_max, base.threads_max);
  num("frac_min", spec.fraction_min, base.fraction_min);
  num("frac_max", spec.fraction_max, base.fraction_max);
  if (spec.benches != base.benches) {
    emit("benches", format_benches(spec.benches));
  }
  num("storm", spec.storm_rate_hz, base.storm_rate_hz);
  integer("storm_len", spec.storm_len, base.storm_len);
  num("storm_gap", spec.storm_gap_s, base.storm_gap_s);
  num("phase_min", spec.phase_min, base.phase_min);
  num("phase_max", spec.phase_max, base.phase_max);
  num("hotplug", spec.hotplug_rate_hz, base.hotplug_rate_hz);
  num("outage_min", spec.outage_min_s, base.outage_min_s);
  num("outage_max", spec.outage_max_s, base.outage_max_s);
  integer("max_offline", spec.max_offline_cores, base.max_offline_cores);
  integer("max_core", spec.max_core, base.max_core);
  num("retarget", spec.retarget_rate_hz, base.retarget_rate_hz);
  num("target_min", spec.target_min_hps, base.target_min_hps);
  num("target_max", spec.target_max_hps, base.target_max_hps);
  std::string name = "gen:" + spec.profile;
  if (!params.empty()) name += ":" + params;
  return name;
}

Scenario ScenarioGenerator::from_name(std::string_view name) {
  ScenarioGenerator generator(parse_name(name));
  Scenario s = generator.generate();
  s.name = std::string(name);
  return s;
}

}  // namespace hars
