// Tabu search over the system-state space (thesis §3.1.4, option 4).
//
// HARS's one-shot neighbourhood sweep (Algorithm 2) can settle in a local
// optimum — the thesis proposes Tabu search (Glover & Laguna) as the
// escape hatch. This implementation runs a short trajectory of best-
// neighbour moves from the current state, where recently visited states
// are tabu (revisiting them is forbidden even if they look best), and an
// aspiration rule admits a tabu state that beats the best seen so far.
// The best target-satisfying state encountered anywhere on the trajectory
// wins; estimation cost is reported like Algorithm 2's candidate count so
// the overhead model covers it.
#pragma once

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/search.hpp"
#include "core/system_state.hpp"
#include "heartbeats/heartbeat.hpp"

namespace hars {

struct TabuParams {
  int iterations = 12;    ///< Trajectory length.
  int tenure = 8;         ///< States kept tabu.
  int step = 1;           ///< Neighbourhood radius per move (Manhattan).
};

/// Per-state estimates are memoized for `scratch`'s epoch (revisited
/// trajectory states cost one lookup) and the tabu list reuses the
/// scratch's ring storage, making the search allocation-free in steady
/// state. Bit-identical to tabu_get_next_sys_state_reference (including
/// `candidates`, which counts logical evaluations, not cache misses).
SearchResult tabu_get_next_sys_state(double hb_rate, const SystemState& current,
                                     const PerfTarget& target,
                                     const TabuParams& params,
                                     const StateSpace& space,
                                     const PerfEstimator& perf_est,
                                     const PowerEstimator& power_est,
                                     int threads,
                                     const CandidateFilter& filter,
                                     SearchScratch* scratch);

/// The retained pre-memoization implementation (std::deque tabu list,
/// every estimate recomputed); the golden reference for
/// search_identity_test's property tests and the audited managers'
/// cross-check (audit_search_result).
SearchResult tabu_get_next_sys_state_reference(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const TabuParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est,
    int threads, const CandidateFilter& filter = {});

}  // namespace hars
