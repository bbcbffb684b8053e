#include "exp/static_optimal.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "backend/sim_backend.hpp"
#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "core/thread_scheduler.hpp"
#include "exp/metrics.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"
#include "util/fan_out.hpp"
#include "util/once_cache.hpp"

namespace hars {

namespace {

struct Probe {
  double pp = 0.0;
  double rate = 0.0;
  bool satisfies = false;
};

Probe probe_state(const PlatformSpec& platform, ParsecBenchmark bench,
                  const SystemState& s, const PerfTarget& target,
                  const StaticOptimalOptions& options) {
  SimEngine engine(platform, std::make_unique<GtsScheduler>());
  std::unique_ptr<App> app = make_parsec_app(bench, options.threads, options.seed);
  const AppId id = engine.add_app(app.get());
  app->heartbeats().set_target(target);

  Machine& m = engine.machine();
  m.set_freq_level(m.fastest_cluster(), s.big_freq);
  m.set_freq_level(m.slowest_cluster(), s.little_freq);
  CpuMask allowed;
  const CoreId lf = m.slowest_mask().first();
  for (int i = 0; i < s.little_cores; ++i) allowed.set(lf + i);
  const CoreId bf = m.fastest_mask().first();
  for (int i = 0; i < s.big_cores; ++i) allowed.set(bf + i);
  engine.set_app_affinity(id, allowed);

  const TimeUs warmup_cap = 60 * kUsPerSec;
  while (app->heartbeats().count() == 0 && engine.now() < warmup_cap) {
    engine.run_for(100 * kUsPerMs);
  }
  const TimeUs t0 = engine.now();
  engine.sensor().reset();
  engine.run_for(kStaticOptimalProbeUs);

  Probe probe;
  const auto& history = app->heartbeats().history();
  const double norm = time_weighted_norm_perf(history, target, t0, engine.now());
  const double power = engine.sensor().average_power_w(engine.now() - t0);
  probe.pp = power > 0.0 ? norm / power : 0.0;
  probe.rate = average_rate(history, t0, engine.now());
  probe.satisfies = probe.rate >= target.min;
  return probe;
}

// The estimator scales candidate rates from a reference (state, rate)
// pair. That reference must be *consistent with the estimator's own
// thread-assignment model* (Table 3.1-pinned threads); the GTS baseline
// leaves the little cluster idle, which would bias every little-using
// candidate low and push the true optimum out of the shortlist.
double measure_pinned_max_rate(const PlatformSpec& platform,
                               ParsecBenchmark bench,
                               const SystemState& max_state,
                               const PerfEstimator& perf_est,
                               const StaticOptimalOptions& options) {
  SimEngine engine(platform, std::make_unique<GtsScheduler>());
  std::unique_ptr<App> app = make_parsec_app(bench, options.threads, options.seed);
  const AppId id = engine.add_app(app.get());

  Machine& m = engine.machine();
  m.set_freq_level(m.fastest_cluster(), max_state.big_freq);
  m.set_freq_level(m.slowest_cluster(), max_state.little_freq);
  const ThreadAssignment a = perf_est.assignment(max_state, app->thread_count());
  SimBackend backend(engine);
  apply_thread_schedule(backend, id, ThreadSchedulerKind::kChunk, a,
                        m.fastest_mask(), m.slowest_mask());

  const TimeUs warmup_cap = 60 * kUsPerSec;
  while (app->heartbeats().count() == 0 && engine.now() < warmup_cap) {
    engine.run_for(100 * kUsPerMs);
  }
  const TimeUs t0 = engine.now();
  engine.run_for(kStaticOptimalProbeUs);
  return average_rate(app->heartbeats().history(), t0, engine.now());
}

}  // namespace

namespace {

StaticOptimalResult compute_static_optimal(
    const PlatformSpec& platform, ParsecBenchmark bench,
    const PerfTarget& target, const StaticOptimalOptions& options) {
  const Machine machine = platform.make_machine();
  const StateSpace space = StateSpace::from_machine(machine);
  // The offline sweep may use the benchmark's true ratio: SO is an oracle.
  PerfEstimator perf_est(machine, parsec_true_ratio(bench));
  const PowerModel model(machine, platform);
  PowerEstimator power_est(profile_power(machine, model));

  // Reference point: measured rate of the maximum state under the
  // estimator's own (pinned) assignment model.
  const SystemState max_state = space.max_state();
  const double ref_rate =
      measure_pinned_max_rate(platform, bench, max_state, perf_est, options);

  struct Ranked {
    SystemState state;
    double est_rate = 0.0;
    double est_pp = 0.0;
  };
  std::vector<Ranked> ranked;
  for (int cb = 0; cb <= space.max_big_cores; ++cb) {
    for (int cl = 0; cl <= space.max_little_cores; ++cl) {
      if (cb + cl < 1) continue;
      for (int fb = 0; fb < space.num_big_freqs; ++fb) {
        for (int fl = 0; fl < space.num_little_freqs; ++fl) {
          const SystemState s{cb, cl, fb, fl};
          Ranked r;
          r.state = s;
          r.est_rate =
              perf_est.estimate_rate(s, max_state, ref_rate, options.threads);
          const double power = power_est.estimate(s, options.threads, perf_est);
          r.est_pp = power > 0.0 ? normalized_perf(r.est_rate, target) / power
                                 : 0.0;
          ranked.push_back(r);
        }
      }
    }
  }
  // Satisfying candidates by estimated pp first, then near-misses by rate.
  std::stable_sort(ranked.begin(), ranked.end(), [&](const Ranked& a,
                                                     const Ranked& b) {
    const bool sa = a.est_rate >= target.min;
    const bool sb = b.est_rate >= target.min;
    if (sa != sb) return sa;
    if (sa) return a.est_pp > b.est_pp;
    return a.est_rate > b.est_rate;
  });

  // The probes are independent simulations: run them in parallel, then
  // select serially in rank order, as one loop would.
  const std::size_t n_probe =
      std::min<std::size_t>(kStaticOptimalShortlist, ranked.size());
  const std::vector<Probe> probes = fan_out(n_probe, [&](std::size_t i) {
    return probe_state(platform, bench, ranked[i].state, target, options);
  });
  StaticOptimalResult best;
  bool best_set = false;
  for (std::size_t i = 0; i < n_probe; ++i) {
    const Probe& probe = probes[i];
    const bool better =
        !best_set ||
        (probe.satisfies && !best.satisfies_target) ||
        (probe.satisfies == best.satisfies_target && probe.pp > best.measured_pp);
    if (better) {
      best.state = ranked[i].state;
      best.measured_pp = probe.pp;
      best.measured_rate = probe.rate;
      best.satisfies_target = probe.satisfies;
      best_set = true;
    }
  }
  return best;
}

}  // namespace

StaticOptimalResult find_static_optimal(ParsecBenchmark bench,
                                        const PerfTarget& target,
                                        const StaticOptimalOptions& options) {
  const PlatformSpec platform =
      options.platform ? *options.platform
                       : PlatformRegistry::instance().get("exynos5422");
  using Key =
      std::tuple<std::uint32_t, int, double, double, std::uint64_t, int>;
  static OnceCache<Key, StaticOptimalResult> cache{"static_optimal"};
  const Key key{platform.signature_id(), static_cast<int>(bench), target.min,
                target.max, options.seed, options.threads};
  return cache.get_or_compute(key, [&] {
    return compute_static_optimal(platform, bench, target, options);
  });
}

}  // namespace hars
