// Data-parallel application model: every iteration, the total work is split
// across the worker threads (with optional imbalance jitter); threads meet
// at a barrier and one heartbeat is emitted per iteration. Models the
// loop-parallel PARSEC benchmarks (blackscholes, swaptions, bodytrack,
// facesim, fluidanimate).
//
// An optional *serial warm-up phase* executes on thread 0 before any
// heartbeat is emitted — blackscholes' input-parsing phase, which drives
// the paper's case-6 (BO+BL) discussion in §5.2.2.
#pragma once

#include <vector>

#include "apps/app.hpp"
#include "apps/workload.hpp"
#include "util/rng.hpp"

namespace hars {

struct DataParallelConfig {
  int threads = 8;
  SpeedModel speed;
  WorkloadConfig workload;
  double imbalance = 0.0;      ///< Relative stddev of per-thread share jitter.
  WorkUnits warmup_work = 0.0; ///< Serial work before the first iteration.
  std::int64_t max_iterations = -1;  ///< <0: unbounded (run until sim end).
  std::uint64_t seed = 1;
};

class DataParallelApp final : public App {
 public:
  DataParallelApp(std::string name, const DataParallelConfig& config);

  bool runnable(int local_tid) const override;
  void refresh_runnable(bool* out) const override;
  /// begin_tick is the base no-op: iterations open in end_tick.
  bool begin_tick_idle() const override { return true; }
  TimeUs execute(int local_tid, TimeUs share_us, CoreType type,
                 double freq_ghz) override;
  void end_tick(TimeUs now) override;
  bool finished() const override;

  /// Quiet spans use execute()'s full-share expressions: can_do =
  /// speed * us_to_sec(share) and used = can_do / speed * kUsPerSec. A
  /// lane's floor is 0: rem > can_do (the full-share branch) holds
  /// exactly when rem - can_do > 0, since doubles underflow gradually.
  /// Every lane carries its speed: a thread that reaches the floor runs
  /// execute()'s partial branch (done = rem), and all but the last open
  /// thread of an iteration may do so inside a span. During the serial
  /// warm-up, thread 0's remaining work is the warm-up's, and its end
  /// ends the span.
  bool plan_quiet(const QuietGrant* grants, QuietLane* lanes) const override;
  bool export_quiet(double* rem) const override;
  int quiet_retires() const override;
  /// Also recounts the open threads: the barrier countdown drops by each
  /// thread the span retired.
  void import_quiet(const double* rem) override;

  std::int64_t iterations_completed() const { return iteration_; }
  bool in_warmup() const { return warmup_remaining_ > 0.0; }

  /// Mean total work of one iteration (used by calibration).
  WorkUnits base_iteration_work() const { return config_.workload.base_work; }

 private:
  void start_iteration();

  DataParallelConfig config_;
  WorkloadGenerator workload_;
  Rng rng_;
  std::vector<WorkUnits> remaining_;  ///< Per-thread work left this iteration.
  TimeUs cached_share_us_ = -1;    ///< Last CPU share converted to seconds.
  double cached_share_sec_ = 0.0;  ///< us_to_sec(cached_share_us_).
  double cached_speed_ = -1.0;     ///< Speed the used-time cache is for.
  TimeUs cached_used_ = 0;         ///< Full-share used time at that speed.
  WorkUnits warmup_remaining_ = 0.0;
  std::int64_t iteration_ = 0;
  int open_threads_ = 0;  ///< remaining_ entries > 0 (barrier countdown).
  bool iteration_open_ = false;
};

}  // namespace hars
