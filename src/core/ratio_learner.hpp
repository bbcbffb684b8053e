// Online big:little performance-ratio learning.
//
// The thesis' blackscholes result (§5.1.2) shows what a wrong assumed
// ratio costs: HARS assumes r0 = 1.5 everywhere, but BL measures 1.0, and
// HARS settles in a suboptimal state. The stated future work is to
// "update the performance ratio in real time". This learner does that:
// it keeps the recent (system state, measured rate) history and picks the
// ratio whose Table-3.1 performance model best explains it.
//
// Model: rate_i ~= k / t_f(state_i; r) for an unknown per-application
// constant k. For a candidate r, the best k in log-space is
// exp(mean(log rate_i + log t_f_i)), and the residual is the variance of
// (log rate_i + log t_f_i). We grid-search r; the argmin is the estimate.
// Identification requires observations from states with *different*
// big/little mixes — exactly what the exhaustive search's exploration
// provides.
#pragma once

#include <deque>
#include <vector>

#include "core/perf_estimator.hpp"
#include "core/system_state.hpp"

namespace hars {

class RatioLearner {
 public:
  static constexpr std::size_t kHistory = 32;  ///< Observations retained.
  /// Observations retained per (C_B, C_L) core mix. Without this cap, a
  /// settled runtime floods the history with one state and the ratio
  /// becomes unidentifiable again — the exploration evidence must survive.
  static constexpr std::size_t kPerMixCap = 4;
  static constexpr double kRMin = 0.8;  ///< Grid bounds for the ratio search.
  static constexpr double kRMax = 3.0;
  static constexpr double kRStep = 0.05;
  static constexpr std::size_t kMinSamples = 6;  ///< Below this, the prior.

  /// `prior_r0` is returned until the ratio is identified: the manager's
  /// own r0.
  RatioLearner(const Machine& machine, int threads, double prior_r0);

  /// Records one (state, measured windowed rate) observation.
  void observe(const SystemState& state, double rate);

  /// Current best ratio estimate (the prior until enough diverse samples).
  double estimate() const;

  /// Residual (log-space variance) of the best fit; large values signal a
  /// workload the Table-3.1 model does not explain (e.g. pipelines).
  double fit_residual() const { return best_residual_; }

  std::size_t samples() const { return history_.size(); }

  void reset();

 private:
  struct Observation {
    SystemState state;
    double log_rate = 0.0;
  };

  /// True when the history covers at least two distinct big:little mixes
  /// (otherwise r is unidentifiable and we keep the prior).
  bool identifiable() const;

  void refit();

  const Machine* machine_;
  int threads_;
  double prior_r0_;
  std::deque<Observation> history_;
  double best_r_;
  double best_residual_ = 0.0;
};

}  // namespace hars
