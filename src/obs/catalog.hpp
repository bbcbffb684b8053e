// The repo-wide metric catalog: every counter/gauge/histogram the
// simulator, search layer, scheduler and sweep engine write, registered
// once at static initialization (catalog.cpp primes it), so hot-path
// writers only ever touch pre-built ids — registration can never happen
// inside a live AllocGuard.
//
// Naming: dotted lowercase ("engine.quiet_tick_ns"); the Prometheus
// writer sanitizes to hars_engine_quiet_tick_ns.
#pragma once

#include "obs/metrics.hpp"

namespace hars {
namespace obs {

/// Ids for every metric in the catalog. Access through catalog(); the
/// instance is built (and all names registered) during static init.
struct Catalog {
  // --- Engine / tick lifecycle ---
  CounterId ticks;                  ///< engine.ticks
  CounterId quiet_ticks;            ///< engine.quiet_ticks
  CounterId tick_allocs;            ///< engine.tick_allocs
  CounterId tick_alloc_violations;  ///< engine.tick_alloc_violations
  HistId step_ns;                   ///< engine.step_ns (one per step())
  HistId quiet_tick_ns;             ///< engine.quiet_tick_ns (per span)

  // --- Search / memoization ---
  CounterId memo_unit_time_hits;    ///< search.memo.unit_time_hits
  CounterId memo_unit_time_misses;  ///< search.memo.unit_time_misses
  CounterId memo_power_hits;        ///< search.memo.power_hits
  CounterId memo_power_misses;      ///< search.memo.power_misses
  CounterId search_calls;           ///< search.calls
  CounterId search_moves;           ///< search.moves (accepted transitions)
  CounterId candidates_incremental; ///< search.candidates.incremental
  CounterId candidates_exhaustive;  ///< search.candidates.exhaustive
  CounterId candidates_tabu;        ///< search.candidates.tabu
  HistId tabu_ring_occupancy;       ///< search.tabu.ring_occupancy

  // --- Scheduler ---
  CounterId gts_assign_calls;  ///< sched.gts.assign_calls
  CounterId gts_assign_skips;  ///< sched.gts.assign_skips (stable placement)
  CounterId migrations;        ///< sched.migrations

  // --- Backend HAL ---
  CounterId backend_dvfs_writes;    ///< backend.dvfs_writes
  CounterId backend_placements;     ///< backend.placements
  CounterId backend_hotplug_writes; ///< backend.hotplug_writes
  CounterId backend_energy_reads;   ///< backend.energy_reads
  CounterId backend_ticks;          ///< backend.ticks (live tick loops)
  HistId backend_tick_ns;           ///< backend.tick_ns (live tick wall time)

  // --- Sweep engine ---
  CounterId sweep_cases;       ///< sweep.cases
  GaugeId sweep_jobs;          ///< sweep.jobs (workers of the last run)
  HistId sweep_case_queue_ms;  ///< sweep.case_queue_ms
  HistId sweep_case_run_ms;    ///< sweep.case_run_ms
  HistId sweep_case_emit_ms;   ///< sweep.case_emit_ms
};

/// The process-wide catalog; first call registers everything.
const Catalog& catalog();

}  // namespace obs
}  // namespace hars
