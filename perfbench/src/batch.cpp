#include "batch.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/parsec.hpp"
#include "backend/backend_registry.hpp"
#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "core/tabu_search.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/power_sensor.hpp"
#include "hmp/sim_engine.hpp"
#include "probes.hpp"
#include "sched/gts.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMinBatchNs = 10'000'000;  // 10 ms per clock pair.
constexpr int kBatches = 7;

/// Keeps `value` alive so the compiler cannot drop the call producing it.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median ns per call of `fn` over kBatches batches, each sized so one
/// clock-read pair spans at least kMinBatchNs.
template <class Fn>
double ns_per_call(Fn&& fn) {
  std::int64_t calls = 16;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    if (now_ns() - t0 >= kMinBatchNs) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::int64_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(calls));
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace

void run_batches(std::map<std::string, double>& out) {
  using namespace hars;

  // Frozen state: one 8-thread swaptions app two simulated seconds into a
  // stock-GTS run on the paper's platform.
  const PlatformSpec platform = PlatformRegistry::instance().get("exynos5422");
  SimEngine engine(platform, std::make_unique<GtsScheduler>());
  std::unique_ptr<App> app = make_parsec_app(ParsecBenchmark::kSwaptions, 8, 1);
  engine.add_app(app.get());
  engine.run_for(2 * kUsPerSec);
  const Machine& machine = engine.machine();

  // hmp: one sensor tick over fixed per-cluster busy sums.
  {
    PowerSensor sensor(machine, engine.power_model());
    const auto clusters = static_cast<std::size_t>(machine.num_clusters());
    std::vector<double> busy(clusters, 2.5);
    std::vector<double> freq;
    for (std::size_t c = 0; c < clusters; ++c) {
      freq.push_back(machine.freq_ghz(static_cast<ClusterId>(c)));
    }
    const std::vector<char> online(clusters, 1);
    TimeUs now = 0;
    out["hmp.sensor_ns"] = ns_per_call([&] {
      now += kUsPerMs;
      sensor.tick_presummed(now, kUsPerMs, busy, freq, online);
    });
  }

  // apps: the runnable block of the frozen 8-thread app.
  {
    const auto flags = std::make_unique<bool[]>(
        static_cast<std::size_t>(app->thread_count()));
    out["apps.refresh_runnable_ns"] = ns_per_call([&] {
      app->refresh_runnable(flags.get());
      keep(flags[0]);
    });
  }

  // sched: GTS over the frozen thread table. The stable table is a fixed
  // point, so every call takes the stable-placement skip; the perturbed
  // table flips one thread's runnable flag per call, so none does.
  {
    GtsScheduler gts;
    std::vector<SimThread> table = engine.threads();
    for (int i = 0; i < 3; ++i) gts.assign(machine, table);
    out["sched.assign_stable_ns"] =
        ns_per_call([&] { gts.assign(machine, table); });

    GtsScheduler full;
    std::vector<SimThread> perturbed = engine.threads();
    out["sched.assign_full_ns"] = ns_per_call([&] {
      perturbed[0].runnable = !perturbed[0].runnable;
      full.assign(machine, perturbed);
    });
  }

  // core: the production search path (one SearchScratch epoch per call, as
  // the manager runs it) and the estimators per candidate.
  {
    const PerfEstimator perf(machine, platform.assumed_ratio());
    const PowerEstimator power(profile_power(machine, engine.power_model()));
    const StateSpace space = StateSpace::from_machine(machine);
    const SystemState current{2, 2, 4, 3};
    const PerfTarget target = PerfTarget::around(2.0);
    const double rate = 3.0;  // Overperforming: the search looks down.
    SearchScratch scratch;

    const auto search = [&](const SearchParams& params) {
      scratch.begin_tick(space);
      return get_next_sys_state(rate, current, target, params, space, perf,
                                power, 8, {}, &scratch);
    };
    const SearchParams incremental =
        params_for_policy(SearchPolicy::kIncremental, true);
    const SearchParams exhaustive =
        params_for_policy(SearchPolicy::kExhaustive, true);
    out["core.search_incremental_ns"] =
        ns_per_call([&] { keep(search(incremental).est_pp); });
    // The exhaustive window at d = 1: few candidates, so this is the
    // search's fixed cost of walking the m/n window.
    const SearchParams d1{exhaustive.m, exhaustive.n, 1};
    out["core.search_d1_ns"] = ns_per_call([&] { keep(search(d1).est_pp); });
    out["core.search_d1_candidates"] = search(d1).candidates;
    const double exhaustive_ns =
        ns_per_call([&] { keep(search(exhaustive).est_pp); });
    const int candidates = search(exhaustive).candidates;
    out["core.search_exhaustive_ns"] = exhaustive_ns;
    out["core.search_exhaustive_candidates"] = candidates;
    out["core.search_ns_per_candidate"] =
        exhaustive_ns / std::max(candidates, 1);
    out["core.search_tabu_ns"] = ns_per_call([&] {
      scratch.begin_tick(space);
      keep(tabu_get_next_sys_state(rate, current, target, TabuParams{}, space,
                                   perf, power, 8, {}, &scratch)
               .est_pp);
    });

    std::vector<SystemState> states;
    for (int cb = 0; cb <= space.max_big_cores; ++cb) {
      for (int cl = 0; cl <= space.max_little_cores; ++cl) {
        for (int fb = 0; fb < space.num_big_freqs; ++fb) {
          for (int fl = 0; fl < space.num_little_freqs; ++fl) {
            const SystemState s{cb, cl, fb, fl};
            if (space.valid(s)) states.push_back(s);
          }
        }
      }
    }
    std::size_t next = 0;
    const auto candidate = [&]() -> const SystemState& {
      next = next + 1 == states.size() ? 0 : next + 1;
      return states[next];
    };
    out["core.perf_estimate_ns"] =
        ns_per_call([&] { keep(perf.unit_time(candidate(), 8)); });
    out["core.power_estimate_ns"] =
        ns_per_call([&] { keep(power.estimate(candidate(), 8, perf)); });
  }

  // backend: hotplug on a frozen mock_linux backend (the HARS variants
  // never hotplug, so the live run cannot time it), alternating between
  // all cores and all but the last.
  {
    std::unique_ptr<Backend> backend =
        BackendRegistry::instance().get_live("mock_linux", BackendOptions{});
    WorkloadDesc desc;
    desc.label = "sw";
    desc.threads = 8;
    backend->add_workload(desc);
    const CpuMask all = backend->topology().online_mask();
    CpuMask fewer = all;
    fewer.clear(backend->topology().num_cores() - 1);
    bool flip = false;
    out["backend.hotplug_ns"] = ns_per_call([&] {
      flip = !flip;
      backend->set_online_mask(flip ? fewer : all);
    });
  }
}

}  // namespace perfbench
