#include "core/search.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"
#include "util/audit.hpp"
#include "util/hot_path.hpp"

namespace hars {

double normalized_perf(double rate, const PerfTarget& target) {
  const double g = target.avg();
  // Defensive only: a non-positive target average would make every
  // candidate tie at 0 and the search pick arbitrarily, so targets are
  // validated upstream (PerfTarget::is_valid_window — builder, scenario
  // validator, manager constructors) and this guard should be
  // unreachable through those paths.
  if (g <= 0.0) return 0.0;
  return std::min(g, rate) / g;
}

const char* search_policy_name(SearchPolicy policy) {
  switch (policy) {
    case SearchPolicy::kIncremental: return "incremental";
    case SearchPolicy::kExhaustive: return "exhaustive";
    case SearchPolicy::kTabu: return "tabu";
  }
  return "?";
}

std::optional<SearchPolicy> parse_search_policy(std::string_view name) {
  for (SearchPolicy policy : {SearchPolicy::kIncremental,
                              SearchPolicy::kExhaustive, SearchPolicy::kTabu}) {
    if (name == search_policy_name(policy)) return policy;
  }
  return std::nullopt;
}

SearchParams params_for_policy(SearchPolicy policy, bool overperforming,
                               int exhaustive_window, int exhaustive_d) {
  if (policy != SearchPolicy::kIncremental) {
    // HARS-E's window is symmetric by definition (§3.1.3: m = n = 4,
    // d = 7): the sweep may shrink and grow every knob by the same
    // amount regardless of the performance direction, and the current
    // state competing via getBetterState keeps "no move" available.
    // Using `exhaustive_window` for both m and n is therefore correct,
    // not an accidental aliasing of two independent bounds.
    return SearchParams{exhaustive_window, exhaustive_window, exhaustive_d};
  }
  // HARS-I: step one component down when overperforming, up otherwise.
  return overperforming ? SearchParams{1, 0, 1} : SearchParams{0, 1, 1};
}

namespace {

/// Best-so-far candidate and the Algorithm 2 selection rules, shared by
/// the memoized and reference sweeps so the two cannot diverge.
struct Best {
  SystemState state;
  double perf = -1.0;
  double power = 0.0;
  double pp = -1.0;
  bool set = false;
};

HARS_HOT void consider(Best& ns, const PerfTarget& target, const SystemState& s,
                       double perf, double power, double pp) {
  // Selection rules of Algorithm 2, lines 13-22.
  if (perf >= target.min) {
    if (ns.set && ns.perf >= target.min) {
      if (pp > ns.pp) ns = Best{s, perf, power, pp, true};
    } else {
      ns = Best{s, perf, power, pp, true};
    }
  } else {
    if (!ns.set || ns.perf < target.min) {
      if (!ns.set || perf > ns.perf) ns = Best{s, perf, power, pp, true};
    }
  }
}

/// The reference walk: every state of the m/n box in ascending (i, j,
/// k, l) order, kept when it is valid in `space` and within Manhattan
/// distance d of `current`.
template <typename VisitFn>
void box_walk(const SystemState& current, const SearchParams& params,
              const StateSpace& space, VisitFn&& visit) {
  for (int i = current.big_cores - params.m; i <= current.big_cores + params.n;
       ++i) {
    for (int j = current.little_cores - params.m;
         j <= current.little_cores + params.n; ++j) {
      for (int k = current.big_freq - params.m; k <= current.big_freq + params.n;
           ++k) {
        for (int l = current.little_freq - params.m;
             l <= current.little_freq + params.n; ++l) {
          const SystemState cand{i, j, k, l};
          if (!space.valid(cand)) continue;
          if (manhattan_distance(cand, current) > params.d) continue;
          visit(cand);
        }
      }
    }
  }
}

/// Inclusive range of one dimension of the window walk.
struct Span {
  int lo;
  int hi;
};

/// The m/n box around `cur`, clipped to the space bounds [min_v, max_v]
/// and to the Manhattan `budget` the outer dimensions left over.
constexpr Span clip(int cur, const SearchParams& params, int min_v, int max_v,
                    int budget) {
  return Span{std::max({cur - params.m, min_v, cur - budget}),
              std::min({cur + params.n, max_v, cur + budget})};
}

/// Visits exactly the states box_walk visits, in the same order, without
/// generating the rest of the box: each loop is clipped to the space and
/// to the distance budget, so only the last rule of StateSpace::valid
/// (at least one core) is left to test.
template <typename VisitFn>
HARS_HOT void window_walk(const SystemState& current,
                          const SearchParams& params, const StateSpace& space,
                          VisitFn&& visit) {
  const Span si = clip(current.big_cores, params, space.min_big_cores,
                       space.max_big_cores, params.d);
  for (int i = si.lo; i <= si.hi; ++i) {
    const int left_i = params.d - std::abs(i - current.big_cores);
    const Span sj = clip(current.little_cores, params, space.min_little_cores,
                         space.max_little_cores, left_i);
    for (int j = sj.lo; j <= sj.hi; ++j) {
      if (i + j < 1) continue;
      const int left_j = left_i - std::abs(j - current.little_cores);
      const Span sk = clip(current.big_freq, params, space.min_big_freq,
                           space.num_big_freqs - 1, left_j);
      for (int k = sk.lo; k <= sk.hi; ++k) {
        const int left_k = left_j - std::abs(k - current.big_freq);
        const Span sl = clip(current.little_freq, params, space.min_little_freq,
                             space.num_little_freqs - 1, left_k);
        for (int l = sl.lo; l <= sl.hi; ++l) visit(SystemState{i, j, k, l});
      }
    }
  }
}

/// Algorithm 2 over the states `walk` visits, with a pluggable
/// per-candidate evaluator. `walk(visit)` must call `visit` on each
/// window state; `evaluate(s, perf, power, pp)` must produce the
/// Algorithm 2 scores for one state.
template <typename WalkFn, typename EvalFn>
HARS_HOT SearchResult neighbourhood_sweep(const SystemState& current,
                                          const PerfTarget& target,
                                          const CandidateFilter& filter,
                                          WalkFn&& walk, EvalFn&& evaluate) {
  Best ns;
  SearchResult result;
  walk([&](const SystemState& cand) {
    if (cand == current) return;  // getBetterState handles it below.
    if (filter && !filter(cand)) return;
    double perf = 0.0;
    double power = 0.0;
    double pp = 0.0;
    evaluate(cand, perf, power, pp);
    ++result.candidates;
    consider(ns, target, cand, perf, power, pp);
  });

  // getBetterState: the current state competes under the same criteria.
  {
    double perf = 0.0;
    double power = 0.0;
    double pp = 0.0;
    evaluate(current, perf, power, pp);
    ++result.candidates;
    consider(ns, target, current, perf, power, pp);
  }

  result.state = ns.set ? ns.state : current;
  result.est_perf = ns.perf;
  result.est_power = ns.power;
  result.est_pp = ns.pp;
  result.moved = !(result.state == current);
  return result;
}

}  // namespace

SearchResult get_next_sys_state_reference(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const SearchParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est,
    int threads, const CandidateFilter& filter) {
  return neighbourhood_sweep(
      current, target, filter,
      [&](auto&& visit) { box_walk(current, params, space, visit); },
      [&](const SystemState& s, double& perf_out, double& power_out,
          double& pp_out) {
        perf_out = perf_est.estimate_rate(s, current, hb_rate, threads);
        power_out = power_est.estimate(s, threads, perf_est);
        const double norm = normalized_perf(perf_out, target);
        pp_out = power_out > 0.0 ? norm / power_out : 0.0;
      });
}

HARS_HOT SearchResult get_next_sys_state(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const SearchParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est, int threads,
    const CandidateFilter& filter, SearchScratch* scratch) {
  // The memoized sweep is strictly allocation-free: memo tables were
  // pre-sized by SearchScratch::begin_tick, so lookups and fills touch
  // only existing slots. The guard re-tightens any enclosing manager
  // AllowScope for the duration of the sweep.
  AllocGuard guard("get_next_sys_state(scratch)");
  // Memoized sweep: t_f(current) is one lookup for the whole call, and
  // each candidate costs one unit-time and one power lookup. The rate
  // expression and its guards mirror PerfEstimator::estimate_rate
  // exactly, so scores are bit-identical to the reference path.
  const double ut_cur = scratch->unit_time(current, threads, perf_est);
  const bool cur_ok = std::isfinite(ut_cur) && ut_cur > 0.0;
  const SearchResult result = neighbourhood_sweep(
      current, target, filter,
      [&](auto&& visit) { window_walk(current, params, space, visit); },
      [&](const SystemState& s, double& perf_out, double& power_out,
          double& pp_out) {
        const double ut = scratch->unit_time(s, threads, perf_est);
        perf_out = (std::isfinite(ut) && ut > 0.0 && cur_ok)
                       ? hb_rate * ut_cur / ut
                       : 0.0;
        power_out = scratch->power(s, threads, perf_est, power_est);
        const double norm = normalized_perf(perf_out, target);
        pp_out = power_out > 0.0 ? norm / power_out : 0.0;
      });
  scratch->flush_counters();
  obs::counter_add(obs::catalog().search_calls);
  if (result.moved) obs::counter_add(obs::catalog().search_moves);
  return result;
}

void audit_search_result(const SearchResult& got,
                         const SearchResult& reference, const char* who) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (got.state == reference.state && got.candidates == reference.candidates &&
      got.moved == reference.moved &&
      bits(got.est_perf) == bits(reference.est_perf) &&
      bits(got.est_power) == bits(reference.est_power) &&
      bits(got.est_pp) == bits(reference.est_pp)) {
    return;
  }
  const auto describe = [](const SearchResult& r) {
    char estimates[96];  // Hex floats: exact, so a 1-ulp drift shows.
    std::snprintf(estimates, sizeof estimates, " perf=%a power=%a pp=%a",
                  r.est_perf, r.est_power, r.est_pp);
    return r.state.to_string() + estimates +
           " candidates=" + std::to_string(r.candidates) +
           (r.moved ? " moved" : " stayed");
  };
  throw AuditError(std::string(who) +
                   ": search differs from the reference search: got " +
                   describe(got) + ", reference " + describe(reference));
}

}  // namespace hars
