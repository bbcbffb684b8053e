// Cross-module property sweeps and fuzz-style robustness tests.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "apps/data_parallel_app.hpp"
#include "apps/parsec.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "exp/experiment.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"
#include "util/rng.hpp"

namespace hars {
namespace {

// ---------------------------------------------------------------------------
// Property: every HARS version on every benchmark delivers most of its
// target and beats the baseline's perf/watt (the paper's core claim).
// ---------------------------------------------------------------------------

using ConvergenceCase = std::tuple<int /*bench*/, int /*version*/>;

class HarsConvergence : public testing::TestWithParam<ConvergenceCase> {};

TEST_P(HarsConvergence, AchievesTargetAndBeatsBaseline) {
  const auto [bench_i, version_i] = GetParam();
  const ParsecBenchmark bench = all_parsec_benchmarks()[static_cast<std::size_t>(bench_i)];
  const char* variant = std::vector<const char*>{
      "HARS-I", "HARS-E", "HARS-EI"}[static_cast<std::size_t>(version_i)];
  const auto run_variant = [bench](const char* name) {
    return ExperimentBuilder()
        .app(bench)
        .variant(name)
        .duration(70 * kUsPerSec)
        .build()
        .run();
  };
  const ExperimentResult hars = run_variant(variant);
  const ExperimentResult base = run_variant("Baseline");
  EXPECT_GT(hars.app().metrics.norm_perf, 0.80)
      << parsec_code(bench) << " " << variant;
  EXPECT_GT(hars.app().metrics.perf_per_watt,
            1.3 * base.app().metrics.perf_per_watt)
      << parsec_code(bench) << " " << variant;
}

INSTANTIATE_TEST_SUITE_P(AllBenchVersions, HarsConvergence,
                         testing::Combine(testing::Range(0, 6),
                                          testing::Range(0, 3)));

// ---------------------------------------------------------------------------
// Property: Algorithm 2's result matches an independent brute-force
// replication of its selection rules over the same candidate set.
// ---------------------------------------------------------------------------

struct BruteForceFixture {
  Machine machine = Machine::exynos5422();
  StateSpace space = StateSpace::from_machine(machine);
  PerfEstimator perf{machine, 1.5};
  PowerEstimator power{profile_power(machine, PowerModel{machine})};
};

SystemState brute_force_next(BruteForceFixture& f, double rate,
                             const SystemState& cur, const PerfTarget& target,
                             const SearchParams& p, int threads) {
  SystemState best = cur;
  double best_perf = -1.0;
  double best_pp = -1.0;
  bool best_sat = false;
  bool set = false;
  auto consider = [&](const SystemState& s) {
    const double perf = f.perf.estimate_rate(s, cur, rate, threads);
    const double power = f.power.estimate(s, threads, f.perf);
    const double pp = power > 0.0 ? normalized_perf(perf, target) / power : 0.0;
    const bool sat = perf >= target.min;
    bool better = false;
    if (!set) {
      better = true;
    } else if (sat != best_sat) {
      better = sat;
    } else if (sat) {
      better = pp > best_pp;
    } else {
      better = perf > best_perf;
    }
    if (better) {
      best = s;
      best_perf = perf;
      best_pp = pp;
      best_sat = sat;
      set = true;
    }
  };
  for (int i = cur.big_cores - p.m; i <= cur.big_cores + p.n; ++i) {
    for (int j = cur.little_cores - p.m; j <= cur.little_cores + p.n; ++j) {
      for (int k = cur.big_freq - p.m; k <= cur.big_freq + p.n; ++k) {
        for (int l = cur.little_freq - p.m; l <= cur.little_freq + p.n; ++l) {
          const SystemState cand{i, j, k, l};
          if (!f.space.valid(cand)) continue;
          if (manhattan_distance(cand, cur) > p.d) continue;
          if (cand == cur) continue;
          consider(cand);
        }
      }
    }
  }
  consider(cur);
  return best;
}

TEST(SearchEquivalence, MatchesBruteForceReplication) {
  BruteForceFixture f;
  Rng rng(2024);
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchParams params{4, 4, 7};
  SearchScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    SystemState cur{rng.uniform_int(0, 4), rng.uniform_int(0, 4),
                    rng.uniform_int(0, 8), rng.uniform_int(0, 5)};
    if (!f.space.valid(cur)) continue;
    const double rate = rng.uniform(0.2, 8.0);
    scratch.begin_tick(f.space);
    const SearchResult got =
        get_next_sys_state(rate, cur, target, params, f.space, f.perf,
                           f.power, 8, {}, &scratch);
    const SystemState want = brute_force_next(f, rate, cur, target, params, 8);
    EXPECT_EQ(got.state, want)
        << "cur=" << cur.to_string() << " rate=" << rate;
  }
}

// ---------------------------------------------------------------------------
// Fuzz: a hostile manager that applies random (valid) states every tick
// must never violate engine invariants.
// ---------------------------------------------------------------------------

class ChaosManager : public ManagerHook {
 public:
  ChaosManager(SimEngine& engine, AppId app, std::uint64_t seed)
      : engine_(engine), app_(app), rng_(seed) {}

  TimeUs on_tick(TimeUs) override {
    if (rng_.next_double() > 0.10) return rng_.uniform_int(0, 50);
    Machine& m = engine_.machine();
    m.set_freq_level(m.fastest_cluster(), rng_.uniform_int(-2, 10));
    m.set_freq_level(m.slowest_cluster(), rng_.uniform_int(-2, 8));
    // Random affinity for every thread, sometimes empty (kernel fallback).
    for (int i = 0; i < engine_.app(app_).thread_count(); ++i) {
      CpuMask mask(rng_.next_u64() & 0xFFULL);
      engine_.set_thread_affinity(app_, i, mask);
    }
    if (rng_.next_double() < 0.3) {
      m.set_online_mask(CpuMask(rng_.next_u64() & 0xFFULL));
    }
    return rng_.uniform_int(0, 2000);
  }

 private:
  SimEngine& engine_;
  AppId app_;
  Rng rng_;
};

TEST(ChaosFuzz, EngineInvariantsHoldUnderRandomControl) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                     std::make_unique<GtsScheduler>());
    auto app = make_parsec_app(ParsecBenchmark::kBodytrack, 8, seed);
    const AppId id = engine.add_app(app.get());
    ChaosManager chaos(engine, id, seed);
    engine.set_manager(&chaos);
    for (int step = 0; step < 40; ++step) {
      engine.run_for(500 * kUsPerMs);
      for (CoreId c = 0; c < engine.machine().num_cores(); ++c) {
        const double busy = engine.core_busy_fraction(c);
        EXPECT_GE(busy, 0.0);
        EXPECT_LE(busy, 1.0 + 1e-9);
      }
      // The chaos manager may have offlined cores *after* this tick's
      // scheduling pass; one quiet tick lets the scheduler migrate (as
      // hotplug does at the next schedule point), after which every
      // runnable thread must sit on an online core.
      engine.clear_manager();
      engine.run_for(engine.tick_us());
      for (const SimThread& t : engine.threads()) {
        if (t.runnable && t.core >= 0) {
          EXPECT_TRUE(engine.machine().is_online(t.core));
        }
      }
      engine.set_manager(&chaos);
      EXPECT_GE(engine.sensor().total_energy_j(), 0.0);
    }
    // The app still makes progress whenever cores are available.
    EXPECT_GT(app->heartbeats().count(), 0);
  }
}

// ---------------------------------------------------------------------------
// Failure injection: an application that stalls (stops emitting
// heartbeats) must not be adapted on stale windows; when it resumes the
// runtime re-engages.
// ---------------------------------------------------------------------------

TEST(HeartbeatStall, ManagerHoldsStateAcrossStall) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  DataParallelConfig cfg;
  cfg.threads = 8;
  cfg.speed = SpeedModel{3.0, 2.0};
  // Phased workload with a huge swing: during heavy phases heartbeats
  // nearly stall.
  cfg.workload = {WorkloadShape::kPhased, 4.0, 0.02, 0.9, 30};
  DataParallelApp app("stall", cfg);
  const AppId id = engine.add_app(&app);
  SimBackend backend(engine);
  RuntimeManager manager(backend, id, PerfTarget::around(2.0),
                         profile_power(engine.machine(), engine.power_model()),
                         config_for_variant(HarsVariant::kHarsE));
  backend.attach_manager(&manager);
  engine.run_for(120 * kUsPerSec);
  // No crash, state valid, and the app is still being serviced.
  const StateSpace space = StateSpace::from_machine(engine.machine());
  EXPECT_TRUE(space.valid(manager.current_state()));
  EXPECT_GT(app.heartbeats().count(), 50);
}

}  // namespace
}  // namespace hars
