// Micro-benchmarks (google-benchmark) for the hot paths of the runtime:
// the estimators and the Algorithm-2 search at several distances. These
// back the overhead model behind Figure 5.3(b).
#include <benchmark/benchmark.h>

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "core/thread_assignment.hpp"
#include "hmp/platform_spec.hpp"

namespace {

using namespace hars;

const Machine& machine() {
  static const Machine m = Machine::exynos5422();
  return m;
}

const PowerEstimator& power_estimator() {
  static const PowerModel model(machine(),
                                PlatformSpec::from_machine(machine()));
  static const PowerEstimator est(profile_power(machine(), model));
  return est;
}

void BM_ThreadAssignment(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_threads(t, 4, 4, 1.5));
  }
}
BENCHMARK(BM_ThreadAssignment)->Arg(4)->Arg(8)->Arg(64);

void BM_PerfEstimateRate(benchmark::State& state) {
  const PerfEstimator est(machine(), 1.5);
  const SystemState cur{4, 4, 8, 5};
  const SystemState cand{2, 3, 4, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate_rate(cand, cur, 3.0, 8));
  }
}
BENCHMARK(BM_PerfEstimateRate);

void BM_PowerEstimate(benchmark::State& state) {
  const PerfEstimator perf(machine(), 1.5);
  const SystemState s{3, 2, 5, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(power_estimator().estimate(s, 8, perf));
  }
}
BENCHMARK(BM_PowerEstimate);

// The production search path, as RuntimeManager drives it through its
// own SearchScratch. The manager opens a new memoization epoch only when
// its ratio learner moves r0, so a cold search (fresh epoch, every
// estimate computed) is the exception and a warm one (every estimate a
// memo hit) the common case.
void search_by_distance(benchmark::State& state, bool warm) {
  const int d = static_cast<int>(state.range(0));
  const PerfEstimator perf(machine(), 1.5);
  const StateSpace space = StateSpace::from_machine(machine());
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  SearchScratch scratch;
  scratch.begin_tick(space);
  int candidates = 0;
  for (auto _ : state) {
    if (!warm) scratch.begin_tick(space);
    const SearchResult r = get_next_sys_state(
        3.0, cur, target, SearchParams{4, 4, d}, space, perf,
        power_estimator(), 8, {}, &scratch);
    candidates = r.candidates;
    benchmark::DoNotOptimize(r);
  }
  state.counters["candidates"] = candidates;
}

void BM_SearchByDistance(benchmark::State& state) {
  search_by_distance(state, /*warm=*/false);
}
BENCHMARK(BM_SearchByDistance)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_SearchByDistanceWarm(benchmark::State& state) {
  search_by_distance(state, /*warm=*/true);
}
BENCHMARK(BM_SearchByDistanceWarm)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

// The retained reference implementation, for the memoization-win
// trajectory next to BM_SearchByDistance.
void BM_SearchByDistanceReference(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const PerfEstimator perf(machine(), 1.5);
  const StateSpace space = StateSpace::from_machine(machine());
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  int candidates = 0;
  for (auto _ : state) {
    const SearchResult r = get_next_sys_state_reference(
        3.0, cur, target, SearchParams{4, 4, d}, space, perf,
        power_estimator(), 8);
    candidates = r.candidates;
    benchmark::DoNotOptimize(r);
  }
  state.counters["candidates"] = candidates;
}
BENCHMARK(BM_SearchByDistanceReference)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_PowerProfiling(benchmark::State& state) {
  const PowerModel model(machine(), PlatformSpec::from_machine(machine()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile_power(machine(), model));
  }
}
BENCHMARK(BM_PowerProfiling);

}  // namespace

BENCHMARK_MAIN();
