#include "core/tabu_search.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

namespace {

struct Scored {
  SystemState state;
  double perf = 0.0;
  double power = 0.0;
  double pp = -1.0;
  bool satisfies = false;
};

/// Algorithm-2-compatible "is a better than b" ordering: target
/// satisfaction first, then normalized-perf/power, then raw perf.
HARS_HOT bool better(const Scored& a, const Scored& b) {
  if (a.satisfies != b.satisfies) return a.satisfies;
  if (a.satisfies) return a.pp > b.pp;
  return a.perf > b.perf;
}

/// The trajectory loop, shared by the memoized and reference paths so the
/// two cannot diverge. `score(s)` produces the Algorithm 2 scores for one
/// state (and counts it); `tabu` is any container with FIFO push capped
/// at the tenure via `push_tabu`.
template <typename ScoreFn, typename TabuList, typename PushFn>
HARS_HOT SearchResult tabu_trajectory(const SystemState& current,
                             const TabuParams& params, const StateSpace& space,
                             const CandidateFilter& filter, ScoreFn&& score,
                             TabuList& tabu, PushFn&& push_tabu,
                             SearchResult& result) {
  auto is_tabu = [&](const SystemState& s) {
    return std::find(tabu.begin(), tabu.end(), s) != tabu.end();
  };

  Scored here = score(current);
  Scored best = here;
  push_tabu(current);

  for (int iter = 0; iter < params.iterations; ++iter) {
    // Enumerate the +/-step neighbourhood of the trajectory head.
    Scored best_move;
    bool found = false;
    for (int di = -params.step; di <= params.step; ++di) {
      for (int dj = -params.step; dj <= params.step; ++dj) {
        for (int dk = -params.step; dk <= params.step; ++dk) {
          for (int dl = -params.step; dl <= params.step; ++dl) {
            if (di == 0 && dj == 0 && dk == 0 && dl == 0) continue;
            if (std::abs(di) + std::abs(dj) + std::abs(dk) + std::abs(dl) >
                params.step) {
              continue;
            }
            const SystemState cand{here.state.big_cores + di,
                                   here.state.little_cores + dj,
                                   here.state.big_freq + dk,
                                   here.state.little_freq + dl};
            if (!space.valid(cand)) continue;
            if (filter && !filter(cand)) continue;
            const Scored scored = score(cand);
            // Tabu unless it aspires (beats the global best).
            if (is_tabu(cand) && !better(scored, best)) continue;
            if (!found || better(scored, best_move)) {
              best_move = scored;
              found = true;
            }
          }
        }
      }
    }
    if (!found) break;  // Entire neighbourhood tabu: stop the trajectory.
    here = best_move;   // Move even if worse than the current head.
    push_tabu(here.state);
    if (better(here, best)) best = here;
  }

  result.state = best.state;
  result.est_perf = best.perf;
  result.est_power = best.power;
  result.est_pp = best.pp;
  result.moved = !(best.state == current);
  return result;
}

}  // namespace

SearchResult tabu_get_next_sys_state_reference(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const TabuParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est,
    int threads, const CandidateFilter& filter) {
  SearchResult result;

  auto score = [&](const SystemState& s) {
    Scored scored;
    scored.state = s;
    scored.perf = perf_est.estimate_rate(s, current, hb_rate, threads);
    scored.power = power_est.estimate(s, threads, perf_est);
    scored.pp = scored.power > 0.0
                    ? normalized_perf(scored.perf, target) / scored.power
                    : 0.0;
    scored.satisfies = scored.perf >= target.min;
    ++result.candidates;
    return scored;
  };

  std::deque<SystemState> tabu;
  auto push_tabu = [&](const SystemState& s) {
    tabu.push_back(s);
    while (static_cast<int>(tabu.size()) > params.tenure) tabu.pop_front();
  };

  return tabu_trajectory(current, params, space, filter, score, tabu,
                         push_tabu, result);
}

HARS_HOT SearchResult tabu_get_next_sys_state(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const TabuParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est, int threads,
    const CandidateFilter& filter, SearchScratch* scratch) {
  SearchResult result;

  // Memoized scoring, mirroring PerfEstimator::estimate_rate's guards
  // exactly (see get_next_sys_state). `candidates` still counts every
  // logical evaluation so the overhead model — and the SearchResult —
  // stay bit-identical to the reference path.
  const double ut_cur = scratch->unit_time(current, threads, perf_est);
  const bool cur_ok = std::isfinite(ut_cur) && ut_cur > 0.0;
  auto score = [&](const SystemState& s) {
    Scored scored;
    scored.state = s;
    const double ut = scratch->unit_time(s, threads, perf_est);
    scored.perf = (std::isfinite(ut) && ut > 0.0 && cur_ok)
                      ? hb_rate * ut_cur / ut
                      : 0.0;
    scored.power = scratch->power(s, threads, perf_est, power_est);
    scored.pp = scored.power > 0.0
                    ? normalized_perf(scored.perf, target) / scored.power
                    : 0.0;
    scored.satisfies = scored.perf >= target.min;
    ++result.candidates;
    return scored;
  };

  // Bounded FIFO over the scratch's reusable ring: erase-at-front on a
  // <= tenure-sized vector is a few moves, with capacity retained across
  // searches so pushes never allocate in steady state.
  std::vector<SystemState>& tabu = scratch->tabu_ring();
  tabu.clear();
  // Pre-size the ring before arming the guard: after the first search at
  // this tenure the capacity is retained and the reserve is a no-op, so
  // the trajectory's pushes below can never allocate in steady state.
  tabu.reserve(static_cast<std::size_t>(params.tenure) + 1);  // hars-lint: allow(no-alloc): capacity retained across searches
  AllocGuard guard("tabu_get_next_sys_state(scratch)");
  auto push_tabu = [&](const SystemState& s) {
    tabu.push_back(s);  // hars-lint: allow(no-alloc): bounded ring, reserved above
    while (static_cast<int>(tabu.size()) > params.tenure) {
      tabu.erase(tabu.begin());
    }
  };

  const SearchResult out = tabu_trajectory(current, params, space, filter,
                                           score, tabu, push_tabu, result);
  // Ring occupancy after the trajectory: how much tabu memory the walk
  // actually used versus the configured tenure.
  obs::hist_observe(obs::catalog().tabu_ring_occupancy,
                    static_cast<double>(tabu.size()));
  scratch->flush_counters();
  obs::counter_add(obs::catalog().search_calls);
  if (out.moved) obs::counter_add(obs::catalog().search_moves);
  return out;
}

}  // namespace hars
