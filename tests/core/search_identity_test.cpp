// ISSUE 5 property suite: the memoized SearchScratch path must return
// bit-identical SearchResults to the retained reference implementations
// across randomized (state, target, params) cases for all three
// SearchPolicy values, on both golden platforms (exynos5422, sd855).
// "Bit-identical" is taken literally: the estimate doubles are compared
// by their bit patterns, not within a tolerance.
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>

#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "core/tabu_search.hpp"
#include "hmp/platform_registry.hpp"
#include "util/rng.hpp"

namespace hars {
namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const SearchResult& a, const SearchResult& b,
                          const char* what, int case_index) {
  EXPECT_EQ(a.state, b.state) << what << " case " << case_index;
  EXPECT_EQ(a.candidates, b.candidates) << what << " case " << case_index;
  EXPECT_EQ(a.moved, b.moved) << what << " case " << case_index;
  EXPECT_EQ(bits_of(a.est_perf), bits_of(b.est_perf))
      << what << " case " << case_index;
  EXPECT_EQ(bits_of(a.est_power), bits_of(b.est_power))
      << what << " case " << case_index;
  EXPECT_EQ(bits_of(a.est_pp), bits_of(b.est_pp))
      << what << " case " << case_index;
}

SystemState random_valid_state(Rng& rng, const StateSpace& space) {
  for (;;) {
    const SystemState s{rng.uniform_int(0, space.max_big_cores),
                        rng.uniform_int(0, space.max_little_cores),
                        rng.uniform_int(0, space.num_big_freqs - 1),
                        rng.uniform_int(0, space.num_little_freqs - 1)};
    if (space.valid(s)) return s;
  }
}

void run_property_cases(const char* platform, int cases,
                        std::uint64_t seed) {
  const Machine machine =
      PlatformRegistry::instance().get(platform).make_machine();
  const StateSpace space = StateSpace::from_machine(machine);
  const PerfEstimator perf(machine, 1.5);
  const PowerEstimator power(profile_power(
      machine, PowerModel{machine, PlatformSpec::from_machine(machine)}));
  Rng rng(seed);
  SearchScratch scratch;  // One scratch, a fresh epoch per case.

  for (int i = 0; i < cases; ++i) {
    const SystemState cur = random_valid_state(rng, space);
    const double center = rng.uniform(0.2, 6.0);
    const PerfTarget target = PerfTarget::around(center);
    const double rate = rng.uniform(0.0, 8.0);
    const int threads = rng.uniform_int(1, 16);
    const int remainder = rng.uniform_int(0, 2);
    const bool with_filter = rng.next_double() < 0.5;
    const auto filter_fn = [&](const SystemState& s) {
      return (s.big_cores + s.little_cores + s.big_freq + s.little_freq) % 3 !=
             remainder;
    };
    const CandidateFilter filter =
        with_filter ? CandidateFilter(filter_fn) : CandidateFilter();

    // Incremental and exhaustive share get_next_sys_state; their policies
    // differ only in SearchParams, so exercise both parameterizations.
    for (const SearchPolicy policy :
         {SearchPolicy::kIncremental, SearchPolicy::kExhaustive}) {
      SearchParams params;
      if (policy == SearchPolicy::kIncremental) {
        params = params_for_policy(policy, rng.next_double() < 0.5);
      } else {
        params = params_for_policy(policy, rng.next_double() < 0.5,
                                   rng.uniform_int(0, 5),
                                   rng.uniform_int(0, 10));
      }
      const SearchResult ref = get_next_sys_state_reference(
          rate, cur, target, params, space, perf, power, threads, filter);
      scratch.begin_tick(space);
      const SearchResult opt =
          get_next_sys_state(rate, cur, target, params, space, perf, power,
                             threads, filter, &scratch);
      expect_bit_identical(ref, opt, search_policy_name(policy), i);
      if (testing::Test::HasFailure()) return;  // Stop at the first failure.
    }

    TabuParams tabu;
    tabu.iterations = rng.uniform_int(1, 16);
    tabu.tenure = rng.uniform_int(1, 10);
    tabu.step = rng.uniform_int(1, 2);
    const SearchResult ref = tabu_get_next_sys_state_reference(
        rate, cur, target, tabu, space, perf, power, threads, filter);
    scratch.begin_tick(space);
    const SearchResult opt =
        tabu_get_next_sys_state(rate, cur, target, tabu, space, perf, power,
                                threads, filter, &scratch);
    expect_bit_identical(ref, opt, "tabu", i);
    if (testing::Test::HasFailure()) return;
  }
}

/// The corner of `space` numbered by the four bits of `corner` (low or
/// high end per dimension), moved to one little core when it has none.
SystemState corner_state(const StateSpace& space, int corner) {
  SystemState s{
      (corner & 1) != 0 ? space.max_big_cores : space.min_big_cores,
      (corner & 2) != 0 ? space.max_little_cores : space.min_little_cores,
      (corner & 4) != 0 ? space.num_big_freqs - 1 : space.min_big_freq,
      (corner & 8) != 0 ? space.num_little_freqs - 1 : space.min_little_freq};
  if (s.big_cores + s.little_cores < 1) s.little_cores = 1;
  return s;
}

/// Scratches driven as the managers drive them: each lives across every
/// case, so entries filled under one thread count are looked up under
/// others. HARS's opens a new epoch only when r0 changes; MP-HARS's opens
/// one for its whole life (r0 never moves) and every search passes a
/// random filter shaped like MpHarsManager's (core budgets and allowed
/// frequency directions per cluster). Windows sit on every corner of the
/// space, where the window walk clips the most, and every other round of
/// corners uses a space with raised lower bounds (same upper bounds, so
/// the memo layout is shared).
void run_persistent_memo_cases(const char* platform, int cases,
                               std::uint64_t seed) {
  const Machine machine =
      PlatformRegistry::instance().get(platform).make_machine();
  const StateSpace full = StateSpace::from_machine(machine);
  StateSpace raised = full;
  raised.min_big_cores = 1;
  raised.min_little_cores = 1;
  raised.min_big_freq = 2;
  raised.min_little_freq = 1;
  PerfEstimator perf(machine, 1.5);
  const PerfEstimator fixed_perf(machine, 1.5);
  const PowerEstimator power(profile_power(
      machine, PowerModel{machine, PlatformSpec::from_machine(machine)}));
  Rng rng(seed);
  SearchScratch scratch;
  double memo_r0 = 0.0;
  int epochs = 0;
  SearchScratch lifetime;
  lifetime.begin_tick(full);
  Rng mp_rng(seed + 1);  // Its own stream: the other cases keep theirs.

  for (int i = 0; i < cases; ++i) {
    if (rng.next_double() < 0.05) perf.set_r0(rng.uniform(0.8, 3.0));
    if (epochs == 0 || perf.r0() != memo_r0) {
      scratch.begin_tick(full);
      memo_r0 = perf.r0();
      ++epochs;
    }
    const StateSpace& space = (i / 16) % 2 == 0 ? full : raised;
    const SystemState cur = corner_state(space, i % 16);
    const PerfTarget target = PerfTarget::around(rng.uniform(0.2, 6.0));
    const double rate = rng.uniform(0.0, 8.0);
    const int threads = rng.uniform_int(1, 16);
    SearchParams params{rng.uniform_int(0, 9), rng.uniform_int(0, 9),
                        rng.uniform_int(0, 14)};
    if (i % 4 == 0) {
      params = params_for_policy(SearchPolicy::kIncremental,
                                 rng.next_double() < 0.5);
    }
    const SearchResult ref = get_next_sys_state_reference(
        rate, cur, target, params, space, perf, power, threads);
    const SearchResult opt = get_next_sys_state(
        rate, cur, target, params, space, perf, power, threads, {}, &scratch);
    expect_bit_identical(ref, opt, "window", i);
    if (testing::Test::HasFailure()) return;

    TabuParams tabu;
    tabu.iterations = rng.uniform_int(1, 16);
    tabu.tenure = rng.uniform_int(1, 10);
    tabu.step = rng.uniform_int(1, 2);
    const SearchResult tabu_ref = tabu_get_next_sys_state_reference(
        rate, cur, target, tabu, space, perf, power, threads);
    const SearchResult tabu_opt = tabu_get_next_sys_state(
        rate, cur, target, tabu, space, perf, power, threads, {}, &scratch);
    expect_bit_identical(tabu_ref, tabu_opt, "tabu", i);
    if (testing::Test::HasFailure()) return;

    const int big_budget = mp_rng.uniform_int(0, full.max_big_cores);
    const int little_budget = mp_rng.uniform_int(0, full.max_little_cores);
    const int freq_moves = mp_rng.uniform_int(0, 15);  // A bit per direction.
    const auto mp_filter = [&](const SystemState& s) {
      if (s.big_cores > big_budget || s.little_cores > little_budget) {
        return false;
      }
      if (s.big_freq > cur.big_freq && (freq_moves & 1) == 0) return false;
      if (s.big_freq < cur.big_freq && (freq_moves & 2) == 0) return false;
      if (s.little_freq > cur.little_freq && (freq_moves & 4) == 0) {
        return false;
      }
      return s.little_freq >= cur.little_freq || (freq_moves & 8) != 0;
    };
    const SearchResult mp_ref = get_next_sys_state_reference(
        rate, cur, target, params, space, fixed_perf, power, threads,
        mp_filter);
    const SearchResult mp_opt =
        get_next_sys_state(rate, cur, target, params, space, fixed_perf,
                           power, threads, mp_filter, &lifetime);
    expect_bit_identical(mp_ref, mp_opt, "mp-hars", i);
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(epochs, 1);  // r0 moved at least once mid-run.
  EXPECT_LT(epochs, cases / 4);  // Most cases reused a warm memo.
}

TEST(SearchIdentityProperty, ExynosThousandRandomizedCases) {
  run_property_cases("exynos5422", 1000, 0xCAFE);
}

TEST(SearchIdentityProperty, Sd855ThousandRandomizedCases) {
  run_property_cases("sd855", 1000, 0xBEEF);
}

TEST(SearchIdentityProperty, ExynosPersistentMemoAcrossCases) {
  run_persistent_memo_cases("exynos5422", 1000, 0xF00D);
}

TEST(SearchIdentityProperty, Sd855PersistentMemoAcrossCases) {
  run_persistent_memo_cases("sd855", 1000, 0xD00D);
}

}  // namespace
}  // namespace hars
