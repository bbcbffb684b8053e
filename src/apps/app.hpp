// Base class for simulated self-adaptive multithreaded applications.
//
// An App owns its heartbeat monitor and a speed model (how fast one of its
// threads retires work on each core type). The SimEngine drives it through
// begin_tick / execute / end_tick; heartbeats are emitted from end_tick
// when a unit of work completes.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "hmp/machine.hpp"
#include "heartbeats/heartbeat.hpp"
#include "util/common.hpp"

namespace hars {

/// Per-application execution speed model. `ipc_big` / `ipc_little` are
/// effective work-units per second per GHz on each core type; their ratio
/// (at equal frequency) is the benchmark's true big:little performance
/// ratio r — e.g. blackscholes measures r ~= 1.0 in the paper even though
/// the architectural width ratio is 1.5.
///
/// `mem_sensitivity` models the memory wall: a fraction of execution time
/// that does not scale with core frequency (0 = fully compute-bound, the
/// paper's implicit assumption; 1 = fully memory-bound). Effective speed
/// is ipc * f^(1 - mem_sensitivity) with f in GHz, so CPU-frequency
/// scaling buys less on memory-bound code — a known failure mode of the
/// performance estimator's linearity assumption.
struct SpeedModel {
  double ipc_big = 3.0;
  double ipc_little = 2.0;
  double mem_sensitivity = 0.0;

  double speed(CoreType type, double freq_ghz) const {
    const double ipc = type == CoreType::kBig ? ipc_big : ipc_little;
    if (mem_sensitivity <= 0.0) return ipc * freq_ghz;
    return ipc * std::pow(freq_ghz, 1.0 - mem_sensitivity);
  }
};

/// One thread's CPU grant on every tick of a quiet span (SimEngine): the
/// share step() hands it and the core it runs on. A share of 0 means the
/// thread does not execute (asleep, unplaced or no capacity left).
struct QuietGrant {
  TimeUs share_us = 0;
  CoreType type = CoreType::kLittle;
  double freq_ghz = 0.0;
};

/// What execute() does with a grant the thread does not finish: the work
/// it retires, the CPU time it returns and the floor its remaining work
/// must stay above once the work is subtracted (the tick is quiet only
/// then). work == 0 means no change; such a lane's floor is -inf, which
/// any remaining work x passes, since x - 0.0 == x.
///
/// A lane with a `speed` may also retire inside a span: on the tick its
/// remaining work `rem` would reach the floor, execute() retires all of
/// it, returns static_cast<TimeUs>(rem / speed * kUsPerSec) and leaves
/// the thread with no work, not runnable from the next tick on. speed ==
/// 0 (the default) ends the span instead.
struct QuietLane {
  WorkUnits work = 0.0;
  WorkUnits floor = -std::numeric_limits<double>::infinity();
  TimeUs used_us = 0;
  double speed = 0.0;
};

class App {
 public:
  /// The app's heartbeat monitor keeps HeartbeatMonitor's default window.
  App(std::string name, int thread_count, SpeedModel speed);
  virtual ~App() = default;

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  const std::string& name() const { return name_; }
  int thread_count() const { return thread_count_; }
  const SpeedModel& speed_model() const { return speed_; }

  HeartbeatMonitor& heartbeats() { return heartbeats_; }
  const HeartbeatMonitor& heartbeats() const { return heartbeats_; }

  /// Does thread `local_tid` want CPU this tick?
  virtual bool runnable(int local_tid) const = 0;

  /// Batch form of runnable() for the engine's tick hot path: writes one
  /// flag per thread into `out` (which has room for thread_count()
  /// entries). Must produce exactly runnable(i) for every i — the default
  /// does literally that; subclasses override to answer for all threads
  /// with one virtual dispatch.
  virtual void refresh_runnable(bool* out) const {
    for (int i = 0; i < thread_count(); ++i) out[i] = runnable(i);
  }

  /// Gives thread `local_tid` up to `share_us` of CPU on a core of `type`
  /// at `freq_ghz`. Returns the CPU time actually consumed (a thread that
  /// completes its pending work mid-share yields the rest).
  virtual TimeUs execute(int local_tid, TimeUs share_us, CoreType type,
                         double freq_ghz) = 0;

  /// Called before scheduling each tick (source-stage item generation...).
  virtual void begin_tick(TimeUs /*now*/) {}

  /// True when begin_tick would change nothing if it ran now. Asked at
  /// quiet-span entry; defaults to false so a subclass that overrides
  /// begin_tick but not this query merely gets no spans.
  virtual bool begin_tick_idle() const { return false; }

  /// Called after all threads executed; barrier/heartbeat logic lives here.
  virtual void end_tick(TimeUs now) = 0;

  // --- Quiet spans (SimEngine::run_until) ---
  // A quiet tick changes only arithmetic: every granted thread keeps
  // work beyond its share, or finishes it on a lane that may retire, so
  // end_tick is a no-op. For the length of a span the engine holds each
  // thread's remaining work in its own array (export_quiet ...
  // import_quiet); each tick it subtracts every lane's work and takes the
  // tick when every result stays above the lane's floor, or when the
  // lanes that reach it may retire (QuietLane::speed, quiet_retires()).

  /// Fills `lanes[i]` for each of the app's threads from `grants[i]`
  /// with exactly the values execute() computes for a share the thread
  /// does not finish, and the floor execute() needs the remaining work to
  /// stay above for that. Returns false when the app does not take quiet
  /// ticks with these grants (the default: never); the engine then steps
  /// the tick.
  virtual bool plan_quiet(const QuietGrant* grants, QuietLane* lanes) const {
    (void)grants;
    (void)lanes;
    return false;
  }

  /// Writes each thread's remaining work to `rem` (thread_count()
  /// entries) at span entry. Returns false when the app takes no quiet
  /// tick whatever its lanes (the default: never).
  virtual bool export_quiet(double* rem) const {
    (void)rem;
    return false;
  }

  /// How many of the app's threads may retire inside a span, on lanes
  /// with a speed, before end_tick would act on the app (a barrier
  /// closing). Asked at span entry, after export_quiet; the default: none.
  virtual int quiet_retires() const { return 0; }

  /// Takes back the remaining work after the span subtracted its ticks'
  /// lanes and retired its threads: bit-identical to execute() on every
  /// granted thread followed by end_tick(), once per tick.
  virtual void import_quiet(const double* rem) { (void)rem; }

  /// True once the application has retired all its input (simulations
  /// normally end on time instead).
  virtual bool finished() const { return false; }

  /// Workload-phase multiplier (scenario `set_phase` events): the app's
  /// work appears `scale`× heavier — effective per-thread speed is divided
  /// by it, which is equivalent to multiplying every iteration's work.
  /// 1.0 = nominal; must be > 0.
  void set_phase_scale(double scale) {
    if (scale > 0.0) phase_scale_ = scale;
  }
  double phase_scale() const { return phase_scale_; }

  /// Thread-hierarchy information (thesis §3.1.4, option 2): sizes of the
  /// application's thread groups in thread-ID order. Data-parallel apps
  /// are one flat group; pipeline apps report one group per stage so a
  /// hierarchy-aware scheduler can give every stage its fair share of big
  /// cores. Sizes must sum to thread_count().
  virtual std::vector<int> thread_group_sizes() const {
    return {thread_count()};
  }

 protected:
  double thread_speed(CoreType type, double freq_ghz) const {
    const double s = speed_.speed(type, freq_ghz);
    // IEEE division by exactly 1.0 is the identity, so skipping it at the
    // nominal phase is bit-identical and saves a divide on the hot path.
    return phase_scale_ == 1.0 ? s : s / phase_scale_;
  }

 private:
  std::string name_;
  int thread_count_;
  SpeedModel speed_;
  HeartbeatMonitor heartbeats_;
  double phase_scale_ = 1.0;
};

}  // namespace hars
