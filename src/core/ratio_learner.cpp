#include "core/ratio_learner.hpp"

#include <cmath>
#include <limits>

namespace hars {

RatioLearner::RatioLearner(const Machine& machine, int threads, double prior_r0)
    : machine_(&machine),
      threads_(threads),
      prior_r0_(prior_r0),
      best_r_(prior_r0) {}

void RatioLearner::observe(const SystemState& state, double rate) {
  if (rate <= 0.0) return;
  // Enforce the per-mix cap: evict the oldest observation of the same
  // (C_B, C_L) mix so exploration evidence from other mixes survives a
  // long-settled phase.
  std::size_t same_mix = 0;
  for (const Observation& o : history_) {
    if (o.state.big_cores == state.big_cores &&
        o.state.little_cores == state.little_cores) {
      ++same_mix;
    }
  }
  if (same_mix >= kPerMixCap) {
    for (auto it = history_.begin(); it != history_.end(); ++it) {
      if (it->state.big_cores == state.big_cores &&
          it->state.little_cores == state.little_cores) {
        history_.erase(it);
        break;
      }
    }
  }
  history_.push_back(Observation{state, std::log(rate)});
  while (history_.size() > kHistory) history_.pop_front();
  refit();
}

bool RatioLearner::identifiable() const {
  // Two states have different mixes when the big-vs-little balance of
  // their capacity differs; compare (C_B, C_L) pairs for simplicity.
  for (std::size_t i = 1; i < history_.size(); ++i) {
    const auto& a = history_[0].state;
    const auto& b = history_[i].state;
    if (a.big_cores != b.big_cores || a.little_cores != b.little_cores) {
      return true;
    }
  }
  return false;
}

void RatioLearner::refit() {
  if (history_.size() < kMinSamples || !identifiable()) {
    best_r_ = prior_r0_;
    best_residual_ = 0.0;
    return;
  }
  double best_r = prior_r0_;
  double best_res = std::numeric_limits<double>::infinity();
  for (double r = kRMin; r <= kRMax + 1e-9; r += kRStep) {
    PerfEstimator est(*machine_, r);
    // c_i = log rate_i + log t_f_i should be constant (= log k) if r is
    // right; score by its variance.
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t n = 0;
    bool valid = true;
    for (std::size_t i = 0; i < history_.size(); ++i) {
      const double tf = est.unit_time(history_[i].state, threads_);
      if (!std::isfinite(tf) || tf <= 0.0) {
        valid = false;
        break;
      }
      const double c = history_[i].log_rate + std::log(tf);
      sum += c;
      sum_sq += c * c;
      ++n;
    }
    if (!valid || n == 0) continue;
    const double mean = sum / static_cast<double>(n);
    const double variance = sum_sq / static_cast<double>(n) - mean * mean;
    if (variance < best_res) {
      best_res = variance;
      best_r = r;
    }
  }
  best_r_ = best_r;
  best_residual_ = best_res;
}

double RatioLearner::estimate() const { return best_r_; }

void RatioLearner::reset() {
  history_.clear();
  best_r_ = prior_r0_;
  best_residual_ = 0.0;
}

// std::deque indexing keeps refit() oblivious to the eviction policy; the
// loop bodies below only read history_[i].

}  // namespace hars
