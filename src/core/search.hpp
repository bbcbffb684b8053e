// The search function (thesis Algorithm 2, GetNextSysState).
//
// Sweeps the neighbourhood [C_B - m, C_B + n] x [C_L - m, C_L + n] x
// [f_B - m, f_B + n] x [f_L - m, f_L + n], skipping candidates whose
// Manhattan distance from the current state exceeds d, estimates each
// candidate's performance and power, and selects:
//   * among target-satisfying candidates, the best normalized-perf/power;
//   * if none satisfies the target, the candidate with the highest
//     estimated performance (get as close to the target as possible).
// Finally the current state competes under the same criteria
// (getBetterState), so the search never proposes a pointless move.
//
// Presets (§3.1.3): HARS-I (m=1,n=0,d=1 when overperforming; m=0,n=1,d=1
// when underperforming) and HARS-E (m=4,n=4,d=7).
#pragma once

#include <optional>
#include <string_view>

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/search_scratch.hpp"
#include "core/system_state.hpp"
#include "heartbeats/heartbeat.hpp"
#include "util/function_ref.hpp"

namespace hars {

/// HARS-E's exhaustive window, m = n = 4, and its Manhattan-distance
/// budget, d = 7 (§3.1.3); MP-HARS-E uses both too.
inline constexpr int kExhaustiveWindow = 4;
inline constexpr int kExhaustiveDistance = 7;

struct SearchParams {
  int m = kExhaustiveWindow;    ///< How far each dimension may decrease.
  int n = kExhaustiveWindow;    ///< How far each dimension may increase.
  int d = kExhaustiveDistance;  ///< Manhattan-distance budget.
};

enum class SearchPolicy {
  kIncremental,  ///< HARS-I: one knob, one step, toward the needed direction.
  kExhaustive,   ///< HARS-E: the full m/n/d neighbourhood sweep.
  kTabu,         ///< §3.1.4 extension: tabu-search trajectory (tabu_search.hpp).
};

const char* search_policy_name(SearchPolicy policy);

/// Inverse of search_policy_name; nullopt for unknown names.
std::optional<SearchPolicy> parse_search_policy(std::string_view name);

/// Builds the effective SearchParams for a policy given whether the
/// application currently overperforms its target.
///
/// Non-incremental policies get the paper's *symmetric* exhaustive window
/// (§3.1.3 defines HARS-E as m = n = 4 with d = 7): `exhaustive_window`
/// is deliberately used for both the decrease bound m and the increase
/// bound n, independent of the over/underperforming direction — only
/// HARS-I is direction-asymmetric. Golden-tested by
/// tests/core/search_test.cpp (ExhaustiveWindowIsSymmetric,
/// HarsEDecisionGolden).
SearchParams params_for_policy(SearchPolicy policy, bool overperforming,
                               int exhaustive_window = kExhaustiveWindow,
                               int exhaustive_d = kExhaustiveDistance);

/// Optional per-candidate constraint (MP-HARS narrows the space by free
/// cores and frequency controllability). Return false to skip a
/// candidate. A non-owning reference: bind it to an lvalue callable (or
/// pass a lambda directly in the call expression); never store it past
/// the callable's lifetime. See util/function_ref.hpp.
using CandidateFilter = FunctionRef<bool(const SystemState&)>;

struct SearchResult {
  SystemState state;          ///< Chosen next state (== current if no better).
  double est_perf = 0.0;      ///< Estimated heartbeat rate at `state`.
  double est_power = 0.0;     ///< Estimated power at `state`.
  double est_pp = 0.0;        ///< Normalized-perf / power at `state`.
  int candidates = 0;         ///< Candidates evaluated (overhead model input).
  bool moved = false;         ///< True when `state` differs from current.
};

/// The estimator calls are memoized per (state, threads) within
/// `scratch`'s current epoch (SearchScratch::begin_tick, which must have
/// run for a space with `space`'s upper bounds), the enumeration walks
/// only the states inside the Manhattan window and the call performs no
/// allocations. Bit-identical to get_next_sys_state_reference.
SearchResult get_next_sys_state(double hb_rate, const SystemState& current,
                                const PerfTarget& target,
                                const SearchParams& params,
                                const StateSpace& space,
                                const PerfEstimator& perf_est,
                                const PowerEstimator& power_est, int threads,
                                const CandidateFilter& filter,
                                SearchScratch* scratch);

/// The retained pre-memoization implementation (recomputes every
/// estimate from scratch and filters the whole m/n box). Kept as the
/// golden reference the production path is property-tested against
/// (search_identity_test) and cross-checked against on every audited
/// manager search (audit_search_result).
SearchResult get_next_sys_state_reference(
    double hb_rate, const SystemState& current, const PerfTarget& target,
    const SearchParams& params, const StateSpace& space,
    const PerfEstimator& perf_est, const PowerEstimator& power_est,
    int threads, const CandidateFilter& filter = {});

/// The managers' audit cross-check: throws AuditError, prefixed with
/// `who`, unless `got` matches `reference` bit for bit — the state,
/// `candidates`, `moved` and every estimate double by its bit pattern.
void audit_search_result(const SearchResult& got,
                         const SearchResult& reference, const char* who);

/// min(g, h) / g with g = target average (no credit for overperformance).
double normalized_perf(double rate, const PerfTarget& target);

}  // namespace hars
