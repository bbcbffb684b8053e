#include "core/tabu_search.hpp"

#include <gtest/gtest.h>

#include "core/power_profiler.hpp"

namespace hars {
namespace {

class TabuSearchTest : public testing::Test {
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

TEST_F(TabuSearchTest, ReturnsValidState) {
  const PerfTarget target = PerfTarget::around(2.0);
  for (const SystemState cur : {SystemState{4, 4, 8, 5}, SystemState{0, 1, 0, 0},
                                SystemState{2, 2, 4, 3}}) {
    const SearchResult r = tabu_get_next_sys_state(
        3.0, cur, target, TabuParams{}, space_, perf_, power_, 8,
        {}, fresh_scratch());
    EXPECT_TRUE(space_.valid(r.state)) << cur.to_string();
  }
}

TEST_F(TabuSearchTest, TravelsFurtherThanOneNeighbourhood) {
  // From the max state massively overperforming, a 12-step trajectory can
  // reach states far beyond a d=1 neighbourhood.
  const SystemState cur = space_.max_state();
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r = tabu_get_next_sys_state(
      8.0, cur, target, TabuParams{12, 8, 1}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_TRUE(r.moved);
  EXPECT_GT(manhattan_distance(r.state, cur), 1);
  EXPECT_GE(r.est_perf, target.min);
}

TEST_F(TabuSearchTest, FindsEfficientTargetSatisfyingState) {
  const SystemState cur = space_.max_state();
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult tabu = tabu_get_next_sys_state(
      8.0, cur, target, TabuParams{16, 8, 1}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  const SearchResult sweep = get_next_sys_state(
      8.0, cur, target, SearchParams{4, 4, 7}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  // The trajectory should be competitive with the exhaustive sweep.
  EXPECT_GE(tabu.est_pp, 0.7 * sweep.est_pp);
}

TEST_F(TabuSearchTest, RespectsCandidateFilter) {
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  // Named lvalue: CandidateFilter is a non-owning reference.
  const auto filter = [&](const SystemState& s) {
    return s.big_cores == cur.big_cores;  // Big-core count locked.
  };
  const SearchResult r = tabu_get_next_sys_state(
      3.0, cur, target, TabuParams{}, space_, perf_, power_, 8,
      filter, fresh_scratch());
  EXPECT_EQ(r.state.big_cores, cur.big_cores);
}

TEST_F(TabuSearchTest, CandidateCountScalesWithIterations) {
  const SystemState cur{2, 2, 4, 3};
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult small = tabu_get_next_sys_state(
      3.0, cur, target, TabuParams{2, 8, 1}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  const SearchResult large = tabu_get_next_sys_state(
      3.0, cur, target, TabuParams{20, 8, 1}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_GT(large.candidates, small.candidates);
}

TEST_F(TabuSearchTest, DoesNotReturnWorseThanCurrentWhenSatisfied) {
  // Current state already satisfies the target; the result must not be a
  // target-missing state.
  const SystemState cur{0, 4, 0, 2};
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r = tabu_get_next_sys_state(
      2.0, cur, target, TabuParams{}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_GE(r.est_perf, target.min);
}

TEST_F(TabuSearchTest, MovedFlagConsistent) {
  const SystemState cur{0, 4, 0, 1};
  const PerfTarget target = PerfTarget::around(2.0);
  const SearchResult r = tabu_get_next_sys_state(
      2.0, cur, target, TabuParams{}, space_, perf_, power_, 8,
      {}, fresh_scratch());
  EXPECT_EQ(r.moved, !(r.state == cur));
}

TEST(SearchPolicyName, IncludesTabu) {
  EXPECT_STREQ(search_policy_name(SearchPolicy::kTabu), "tabu");
  EXPECT_STREQ(search_policy_name(SearchPolicy::kIncremental), "incremental");
  EXPECT_STREQ(search_policy_name(SearchPolicy::kExhaustive), "exhaustive");
}

}  // namespace
}  // namespace hars
