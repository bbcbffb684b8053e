// Per-thread load tracking, a simplified analogue of the kernel's
// per-entity load tracking that drives GTS migration decisions: an
// exponentially weighted moving average of the thread's runnable fraction.
#pragma once

#include "util/common.hpp"
#include "util/hot_path.hpp"

namespace hars {

class LoadTracker {
 public:
  /// `half_life_us` controls how quickly the average follows behaviour
  /// changes; the kernel's PELT half-life is ~32 ms.
  explicit LoadTracker(TimeUs half_life_us = 32 * kUsPerMs);

  /// Records one tick of `runnable` (1) or idle (0) behaviour. The
  /// reference tick's form: defined in hars_oracle
  /// (src/oracle/reference_run.cpp), so a binary that links only hars
  /// cannot call it.
  void update(bool runnable, TimeUs tick_us);

  /// The per-tick EWMA factor `update` derives from the tick length.
  /// Exposed so the engine can compute it once per tick instead of once
  /// per thread (exp2 dominates the update otherwise).
  double decay_for(TimeUs tick_us) const;

  /// The runnable term of one EWMA step: (runnable ? 1 : 0) * (1 - decay).
  static double add_for(bool runnable, double decay) {
    return (runnable ? 1.0 : 0.0) * (1.0 - decay);
  }

  /// One EWMA step of `load` with add = add_for(runnable, decay): the one
  /// formula both update_with_decay and the engine's quiet spans use.
  HARS_HOT static double advance(double load, double decay, double add) {
    return load * decay + add;
  }

  /// Hot-path form of update(): `decay` must equal decay_for(tick_us) for
  /// this tracker, which makes the result bit-identical to update().
  HARS_HOT void update_with_decay(bool runnable, double decay) {
    // Exact fixed points, skipped bit-identically: 0 is always one
    // (0*d + 0*(1-d) == 0); 1 is one when d >= 1/2, where 1-d is exact
    // (Sterbenz) and d + (1-d) rounds to exactly 1.0. So skipping or not,
    // the value is advance()'s.
    if (runnable ? (value_ == 1.0 && decay >= 0.5) : (value_ == 0.0)) return;
    value_ = advance(value_, decay, add_for(runnable, decay));
  }

  TimeUs half_life_us() const { return half_life_us_; }

  /// Current load average in [0, 1].
  double value() const { return value_; }

  /// Sets the value: threads start "hot" so freshly spawned CPU-bound
  /// work migrates up immediately, as GTS does for forked tasks, and a
  /// quiet span writes back the loads it advanced in its own arrays.
  void prime(double initial) { value_ = initial; }

 private:
  TimeUs half_life_us_;
  double value_ = 1.0;
};

}  // namespace hars
