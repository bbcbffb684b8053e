#include "core/search.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "core/power_profiler.hpp"

namespace hars {
namespace {

class SearchTest : public testing::Test {
 protected:
  Machine machine_ = Machine::exynos5422();
  StateSpace space_ = StateSpace::from_machine(machine_);
  PerfEstimator perf_{machine_, 1.5};
  PowerEstimator power_{profile_power(machine_, PowerModel{machine_})};
  SearchScratch scratch_;

  /// The production search's memo, opened fresh for `space_`.
  SearchScratch* fresh_scratch() {
    scratch_.begin_tick(space_);
    return &scratch_;
  }
};

TEST_F(SearchTest, NormalizedPerfCapsAtOne) {
  const PerfTarget t{1.9, 2.1};
  EXPECT_NEAR(normalized_perf(2.0, t), 1.0, 1e-12);
  EXPECT_NEAR(normalized_perf(4.0, t), 1.0, 1e-12);  // No overperf credit.
  EXPECT_NEAR(normalized_perf(1.0, t), 0.5, 1e-12);
  EXPECT_EQ(normalized_perf(1.0, PerfTarget{0.0, 0.0}), 0.0);
}

TEST_F(SearchTest, PolicyParams) {
  const SearchParams over = params_for_policy(SearchPolicy::kIncremental, true);
  EXPECT_EQ(over.m, 1);
  EXPECT_EQ(over.n, 0);
  EXPECT_EQ(over.d, 1);
  const SearchParams under = params_for_policy(SearchPolicy::kIncremental, false);
  EXPECT_EQ(under.m, 0);
  EXPECT_EQ(under.n, 1);
  EXPECT_EQ(under.d, 1);
  const SearchParams ex = params_for_policy(SearchPolicy::kExhaustive, true);
  EXPECT_EQ(ex.m, 4);
  EXPECT_EQ(ex.n, 4);
  EXPECT_EQ(ex.d, 7);
}

// ISSUE 5 satellite: params_for_policy deliberately passes
// `exhaustive_window` for BOTH the decrease bound m and the increase
// bound n of non-incremental policies — the paper's exhaustive window is
// symmetric by definition (§3.1.3: HARS-E is m = n = 4, d = 7),
// independent of the over/underperforming direction. Only HARS-I is
// direction-asymmetric.
TEST_F(SearchTest, ExhaustiveWindowIsSymmetric) {
  for (bool over : {true, false}) {
    for (int window : {1, 3, 4, 6}) {
      const SearchParams p =
          params_for_policy(SearchPolicy::kExhaustive, over, window, 7);
      EXPECT_EQ(p.m, window) << "over=" << over;
      EXPECT_EQ(p.n, window) << "over=" << over;
      EXPECT_EQ(p.d, 7);
      // Tabu runs through the same branch: its fallback params are the
      // exhaustive ones.
      const SearchParams t =
          params_for_policy(SearchPolicy::kTabu, over, window, 7);
      EXPECT_EQ(t.m, window);
      EXPECT_EQ(t.n, window);
    }
  }
  // The symmetric window really explores both directions: from a middle
  // state, candidates exist below and above on every dimension.
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  bool saw_lower_big = false;
  bool saw_higher_big = false;
  const auto filter = [&](const SystemState& s) {
    saw_lower_big |= s.big_cores < cur.big_cores;
    saw_higher_big |= s.big_cores > cur.big_cores;
    return true;
  };
  (void)get_next_sys_state(2.0, cur, target,
                           params_for_policy(SearchPolicy::kExhaustive, true),
                           space_, perf_, power_, 8, filter, fresh_scratch());
  EXPECT_TRUE(saw_lower_big);
  EXPECT_TRUE(saw_higher_big);
}

// Golden HARS-E decisions on the exynos5422 space (r0 = 1.5, profiled
// power table, 8 threads): chosen states and candidate counts pinned so
// any change to the window semantics or the selection rules is caught.
// Values derived from the retained reference implementation.
TEST_F(SearchTest, HarsEDecisionGolden) {
  struct Golden {
    SystemState cur;
    double rate;
    bool overperforming;
    SystemState expect;
    int candidates;
  };
  const Golden goldens[] = {
      {{4, 4, 8, 5}, 4.0, true, {0, 4, 5, 5}, 270},
      {{2, 2, 4, 3}, 1.0, false, {3, 3, 7, 5}, 990},
      {{1, 0, 0, 0}, 0.4, false, {3, 4, 0, 0}, 300},
      {{3, 1, 6, 2}, 2.6, true, {2, 3, 2, 2}, 749},
  };
  const PerfTarget target = PerfTarget::around(2.0);
  SearchScratch scratch;
  for (const Golden& g : goldens) {
    const SearchParams params =
        params_for_policy(SearchPolicy::kExhaustive, g.overperforming);
    // Reference and memoized paths must both hit the golden decision.
    const SearchResult ref = get_next_sys_state_reference(
        g.rate, g.cur, target, params, space_, perf_, power_, 8);
    scratch.begin_tick(space_);
    const SearchResult opt =
        get_next_sys_state(g.rate, g.cur, target, params, space_, perf_,
                           power_, 8, {}, &scratch);
    for (const SearchResult& r : {ref, opt}) {
      EXPECT_EQ(r.state, g.expect) << g.cur.to_string();
      EXPECT_EQ(r.candidates, g.candidates) << g.cur.to_string();
      EXPECT_TRUE(r.moved);
    }
  }
}

TEST_F(SearchTest, OverperformingMovesToCheaperState) {
  // At max state with rate far above target, the search must find a state
  // that still satisfies the target with lower estimated power.
  const SystemState cur = space_.max_state();
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r =
      get_next_sys_state(4.0, cur, target, SearchParams{4, 4, 7}, space_,
                         perf_, power_, 8, {}, fresh_scratch());
  EXPECT_TRUE(r.moved);
  EXPECT_GE(r.est_perf, target.min);
  EXPECT_LT(power_.estimate(r.state, 8, perf_), power_.estimate(cur, 8, perf_));
}

TEST_F(SearchTest, UnderperformingMovesToFasterState) {
  const SystemState cur{1, 0, 0, 0};
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r =
      get_next_sys_state(0.4, cur, target, SearchParams{4, 4, 7}, space_,
                         perf_, power_, 8, {}, fresh_scratch());
  EXPECT_TRUE(r.moved);
  EXPECT_GT(perf_.estimate_rate(r.state, cur, 0.4, 8), 0.4);
}

TEST_F(SearchTest, ResultAlwaysWithinDistanceBudget) {
  const PerfTarget target = PerfTarget::around(2.0);
  for (int d : {1, 3, 5, 7}) {
    const SystemState cur{2, 2, 4, 3};
    const SearchResult r = get_next_sys_state(
        4.0, cur, target, SearchParams{4, 4, d}, space_, perf_, power_, 8,
        {}, fresh_scratch());
    EXPECT_LE(manhattan_distance(r.state, cur), d) << "d=" << d;
  }
}

TEST_F(SearchTest, ResultAlwaysValid) {
  const PerfTarget target = PerfTarget::around(1.0);
  for (double rate : {0.1, 1.0, 10.0}) {
    const SystemState cur{0, 1, 0, 0};  // Corner of the space.
    const SearchResult r = get_next_sys_state(
        rate, cur, target, SearchParams{4, 4, 7}, space_, perf_, power_, 8,
        {}, fresh_scratch());
    EXPECT_TRUE(space_.valid(r.state));
  }
}

TEST_F(SearchTest, IncrementalChangesAtMostOneStep) {
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r = get_next_sys_state(
      4.0, cur, target, params_for_policy(SearchPolicy::kIncremental, true),
      space_, perf_, power_, 8, {}, fresh_scratch());
  EXPECT_LE(manhattan_distance(r.state, cur), 1);
}

TEST_F(SearchTest, CandidateCountGrowsWithD) {
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  int prev = 0;
  for (int d : {1, 3, 5, 7, 9}) {
    const SearchResult r = get_next_sys_state(
        4.0, cur, target, SearchParams{4, 4, d}, space_, perf_, power_, 8,
        {}, fresh_scratch());
    EXPECT_GT(r.candidates, prev) << "d=" << d;
    prev = r.candidates;
  }
}

TEST_F(SearchTest, FilterExcludesCandidates) {
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  // Forbid any big-core change (MP-HARS-style narrowing). Named lvalue:
  // CandidateFilter is a non-owning reference.
  const auto filter = [&](const SystemState& s) {
    return s.big_cores == cur.big_cores;
  };
  const SearchResult r =
      get_next_sys_state(4.0, cur, target, SearchParams{4, 4, 7}, space_,
                         perf_, power_, 8, filter, fresh_scratch());
  EXPECT_EQ(r.state.big_cores, cur.big_cores);
}

TEST_F(SearchTest, StaysWhenCurrentAlreadyBest) {
  // Current state satisfies the target; no candidate should win unless it
  // strictly improves estimated perf/watt.
  const PerfTarget target = PerfTarget::around(2.0);
  // First let an exhaustive search settle from max.
  SystemState cur = space_.max_state();
  double rate = 4.0;
  for (int iter = 0; iter < 10; ++iter) {
    const SearchResult r = get_next_sys_state(
        rate, cur, target, SearchParams{4, 4, 7}, space_, perf_, power_, 8,
        {}, fresh_scratch());
    if (!r.moved) break;
    rate = perf_.estimate_rate(r.state, cur, rate, 8);
    cur = r.state;
  }
  // Converged: one more search stays put.
  const SearchResult r = get_next_sys_state(
      rate, cur, target, SearchParams{4, 4, 7}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_FALSE(r.moved);
}

TEST_F(SearchTest, PrefersTargetSatisfactionOverEfficiency) {
  // From a tiny state, some candidates have great perf/watt but miss the
  // target; the search must prefer a target-satisfying one (Algorithm 2's
  // two-tier selection).
  const SystemState cur{1, 0, 4, 0};
  const double rate = 1.0;
  const PerfTarget target = PerfTarget::around(1.5);
  const SearchResult r = get_next_sys_state(
      rate, cur, target, SearchParams{4, 4, 7}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_GE(r.est_perf, target.min);
}

// Distance-budget sweep as a parameterized property: the chosen state never
// violates the budget nor the space bounds for any (current state, rate).
using SearchCase = std::tuple<int, int, int, int, double, int>;

class SearchProperty : public testing::TestWithParam<SearchCase> {};

TEST_P(SearchProperty, RespectsBudgetAndBounds) {
  const auto [cb, cl, fb, fl, rate, d] = GetParam();
  Machine machine = Machine::exynos5422();
  const StateSpace space = StateSpace::from_machine(machine);
  PerfEstimator perf(machine, 1.5);
  PowerEstimator power(profile_power(machine, PowerModel{machine}));
  const SystemState cur{cb, cl, fb, fl};
  if (!space.valid(cur)) GTEST_SKIP();
  const PerfTarget target = PerfTarget::around(2.0);
  SearchScratch scratch;
  scratch.begin_tick(space);
  const SearchResult r =
      get_next_sys_state(rate, cur, target, SearchParams{4, 4, d}, space,
                         perf, power, 8, {}, &scratch);
  EXPECT_TRUE(space.valid(r.state));
  EXPECT_LE(manhattan_distance(r.state, cur), d);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchProperty,
    testing::Combine(testing::Values(0, 2, 4), testing::Values(0, 2, 4),
                     testing::Values(0, 4, 8), testing::Values(0, 5),
                     testing::Values(0.5, 2.0, 6.0), testing::Values(1, 4, 9)));

}  // namespace
}  // namespace hars
