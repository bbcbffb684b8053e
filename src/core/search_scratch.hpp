// SearchScratch: reusable keyed scratch for the search hot path.
//
// The search functions (Algorithm 2's neighbourhood sweep and the tabu
// trajectory) spend their time in two pure computations per candidate:
// the performance estimator's unit completion time t_f(s, T) and the
// power estimate P(s, T). Both depend only on (state, threads) plus the
// machine's frequency tables, the profiled coefficients and the assumed
// ratio r0. The first two are fixed for a manager's lifetime and only the
// ratio learner moves r0, so a value computed once stays valid across
// candidates, across searches and across MP-HARS's per-app searches until
// r0 changes. The managers therefore open a new epoch only then
// (RuntimeManager) or once for their lifetime (MpHarsManager).
//
// The scratch holds dense generation-stamped tables over the state space
// (one slot per valid SystemState); begin_tick() opens a new epoch by
// bumping the generation, which invalidates every entry in O(1) without
// deallocating. Entries are keyed by thread count as well, so an epoch
// may serve searches for different thread counts. Steady-state lookups
// never allocate. Lookups are inline and only tally their hits and
// misses; each search adds the tally to the search.memo.* counters once
// (flush_counters), not once per candidate.
//
// Bit-identity: a memoized value is the result of the exact expression
// the unmemoized path evaluates, so searches through the scratch return
// bit-identical SearchResults to the retained reference implementations
// (get_next_sys_state_reference / tabu_get_next_sys_state_reference),
// which tests/core/search_identity_test.cpp asserts over randomized
// cases for all three SearchPolicy values.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/perf_estimator.hpp"
#include "core/power_estimator.hpp"
#include "core/system_state.hpp"

namespace hars {

class SearchScratch {
 public:
  /// Opens a new memoization epoch sized for `space`: every previously
  /// memoized value is invalidated, and the dense tables are grown if the
  /// space outgrew them. Call before the first search that passes this
  /// scratch, and again whenever an estimator input (r0, the machine,
  /// the coefficients) changes.
  void begin_tick(const StateSpace& space);

  /// Memoized PerfEstimator::unit_time(s, threads); `s` must be valid in
  /// the begin_tick space.
  double unit_time(const SystemState& s, int threads,
                   const PerfEstimator& perf) {
    assert(gen_ != 0 && "begin_tick() must run before lookups");
    Entry& entry = unit_time_[index_of(s)];
    if (entry.gen != gen_ || entry.threads != threads) {
      entry = Entry{gen_, threads, perf.unit_time(s, threads)};
      ++tally_.unit_time_misses;
    } else {
      ++tally_.unit_time_hits;
    }
    return entry.value;
  }

  /// Memoized PowerEstimator::estimate(s, threads, perf).
  double power(const SystemState& s, int threads, const PerfEstimator& perf,
               const PowerEstimator& power_est) {
    assert(gen_ != 0 && "begin_tick() must run before lookups");
    Entry& entry = power_[index_of(s)];
    if (entry.gen != gen_ || entry.threads != threads) {
      entry = Entry{gen_, threads, power_est.estimate(s, threads, perf)};
      ++tally_.power_misses;
    } else {
      ++tally_.power_hits;
    }
    return entry.value;
  }

  /// Adds the hits and misses tallied since the last call to the
  /// search.memo.* counters and resets the tally. The search functions
  /// call it once per search.
  void flush_counters();

  /// Reusable bounded-FIFO backing store for the tabu list (cleared by the
  /// caller; capacity persists across searches so pushes do not allocate
  /// in steady state).
  std::vector<SystemState>& tabu_ring() { return tabu_ring_; }

 private:
  struct Entry {
    std::uint32_t gen = 0;  ///< Epoch stamp; 0 is never a live epoch.
    int threads = -1;       ///< Thread count the value was computed for.
    double value = 0.0;
  };

  /// Lookups since the last flush_counters().
  struct Tally {
    std::uint64_t unit_time_hits = 0;
    std::uint64_t unit_time_misses = 0;
    std::uint64_t power_hits = 0;
    std::uint64_t power_misses = 0;
  };

  std::size_t index_of(const SystemState& s) const {
    return static_cast<std::size_t>(
        ((s.big_cores * stride_l_ + s.little_cores) * stride_bf_ +
         s.big_freq) *
            stride_lf_ +
        s.little_freq);
  }

  int stride_l_ = 0;   ///< max_little_cores + 1.
  int stride_bf_ = 0;  ///< num_big_freqs.
  int stride_lf_ = 0;  ///< num_little_freqs.
  std::uint32_t gen_ = 0;
  Tally tally_;
  std::vector<Entry> unit_time_;
  std::vector<Entry> power_;
  std::vector<SystemState> tabu_ring_;
};

}  // namespace hars
