#include "obs/catalog.hpp"

#include <cmath>
#include <vector>

namespace hars {
namespace obs {

namespace {

/// Exponential bounds shared by every ns histogram: 10 ns .. 10 ms,
/// two buckets per decade.
std::vector<double> ns_bounds() {
  std::vector<double> bounds;
  for (int half_decades = 2; half_decades <= 14; ++half_decades) {
    bounds.push_back(std::pow(10.0, half_decades / 2.0));
  }
  return bounds;
}

/// Power-of-two bounds for the tabu ring occupancy (ring is small).
std::vector<double> ring_bounds() { return {1, 2, 4, 8, 16, 32, 64}; }

/// Millisecond latency bounds for sweep case timings: 10 us .. 10 s.
std::vector<double> sweep_ms_bounds() {
  std::vector<double> bounds;
  for (double b = 0.01; b <= 1e4; b *= std::sqrt(10.0)) {
    bounds.push_back(b);
  }
  return bounds;
}

Catalog build_catalog() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  Catalog c;

  c.ticks = reg.register_counter("engine.ticks", "Simulation ticks stepped");
  c.quiet_ticks = reg.register_counter(
      "engine.quiet_ticks",
      "Ticks run in quiet spans (a subset of engine.ticks)");
  c.tick_allocs = reg.register_counter(
      "engine.tick_allocs",
      "Heap allocations observed inside guarded tick regions (AllowScopes "
      "included)");
  c.tick_alloc_violations = reg.register_counter(
      "engine.tick_alloc_violations",
      "Undeclared allocations inside guarded tick regions (must stay 0)");
  c.step_ns = reg.register_histogram(
      "engine.step_ns", ns_bounds(),
      "Wall time of one step() tick, timed by run_until (ns)");
  c.quiet_tick_ns = reg.register_histogram(
      "engine.quiet_tick_ns", ns_bounds(),
      "Wall time of one quiet span divided by its tick count (ns)");

  c.memo_unit_time_hits = reg.register_counter(
      "search.memo.unit_time_hits", "SearchScratch unit-time memo hits");
  c.memo_unit_time_misses = reg.register_counter(
      "search.memo.unit_time_misses", "SearchScratch unit-time memo misses");
  c.memo_power_hits = reg.register_counter("search.memo.power_hits",
                                           "SearchScratch power memo hits");
  c.memo_power_misses = reg.register_counter(
      "search.memo.power_misses", "SearchScratch power memo misses");
  c.search_calls =
      reg.register_counter("search.calls", "get_next_sys_state invocations");
  c.search_moves = reg.register_counter(
      "search.moves", "Accepted state transitions (result != current)");
  c.candidates_incremental = reg.register_counter(
      "search.candidates.incremental",
      "Candidate states evaluated by the incremental policy");
  c.candidates_exhaustive = reg.register_counter(
      "search.candidates.exhaustive",
      "Candidate states evaluated by the exhaustive policy");
  c.candidates_tabu = reg.register_counter(
      "search.candidates.tabu",
      "Candidate states evaluated by the tabu policy");
  c.tabu_ring_occupancy = reg.register_histogram(
      "search.tabu.ring_occupancy", ring_bounds(),
      "Tabu ring entries live after a trajectory");

  c.gts_assign_calls = reg.register_counter(
      "sched.gts.assign_calls", "GTS scratch-path assign invocations");
  c.gts_assign_skips = reg.register_counter(
      "sched.gts.assign_skips",
      "GTS assigns skipped by the stable-placement fast path");
  c.migrations = reg.register_counter(
      "sched.migrations", "Thread migrations performed by GTS (scratch path)");

  c.backend_dvfs_writes = reg.register_counter(
      "backend.dvfs_writes", "Backend::set_dvfs_level calls (any backend)");
  c.backend_placements = reg.register_counter(
      "backend.placements", "Backend::place calls (any backend)");
  c.backend_hotplug_writes = reg.register_counter(
      "backend.hotplug_writes", "Backend::set_online_mask calls (any backend)");
  c.backend_energy_reads = reg.register_counter(
      "backend.energy_reads", "Backend::energy_j reads (any backend)");
  c.backend_ticks = reg.register_counter(
      "backend.ticks", "Live-backend tick-loop iterations (mock/linux)");
  c.backend_tick_ns = reg.register_histogram(
      "backend.tick_ns", ns_bounds(),
      "Wall time of one live-backend tick (observe + manager + actuate, ns)");

  c.sweep_cases =
      reg.register_counter("sweep.cases", "Sweep cases completed");
  c.sweep_jobs = reg.register_gauge("sweep.jobs",
                                    "Worker count of the last sweep run");
  c.sweep_case_queue_ms = reg.register_histogram(
      "sweep.case_queue_ms", sweep_ms_bounds(),
      "Delay between sweep start and a case starting (ms)");
  c.sweep_case_run_ms = reg.register_histogram(
      "sweep.case_run_ms", sweep_ms_bounds(),
      "Wall time of one sweep case (ms)");
  c.sweep_case_emit_ms = reg.register_histogram(
      "sweep.case_emit_ms", sweep_ms_bounds(),
      "Time a finished case waited for in-order emission (ms)");
  return c;
}

}  // namespace

const Catalog& catalog() {
  static const Catalog c = build_catalog();
  return c;
}

namespace {
// Prime at static init: all registration allocations happen before main,
// so catalog() inside a live AllocGuard is a pure table read.
[[maybe_unused]] const Catalog& g_primed = catalog();
}  // namespace

}  // namespace obs
}  // namespace hars
