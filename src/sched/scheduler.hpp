// Scheduler interface between the simulation engine and OS-scheduler
// models. Each tick the engine hands the scheduler the thread table; the
// scheduler places every runnable thread on an online core permitted by
// its affinity mask.
#pragma once

#include <vector>

#include "hmp/cpu_mask.hpp"
#include "hmp/machine.hpp"
#include "sched/load_tracker.hpp"
#include "util/common.hpp"

namespace hars {

class App;

/// Mutable per-thread record owned by the simulation engine. Fields the
/// tick path touches every tick (affinity, core, runnable, load,
/// app_ptr, local_index) lead, so they share cache lines; bookkeeping
/// trails.
struct SimThread {
  CpuMask affinity;      ///< sched_setaffinity mask (all cores by default).
  CoreId core = -1;      ///< Current placement; -1 when unplaced.
  bool runnable = false; ///< Wants CPU this tick.
  int local_index = 0;   ///< Thread index within the application.
  LoadTracker load;      ///< Load average for migration decisions.
  App* app_ptr = nullptr;  ///< Cached owner (== engine app(app)); stable
                           ///< across other apps' removals.
  AppId app = 0;         ///< Owning application index.
  TimeUs cpu_time_us = 0;      ///< Lifetime CPU time consumed.
  ThreadId id = 0;       ///< Engine-global thread id.
  std::int64_t migrations = 0; ///< Cross-core placement changes.
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Places every runnable thread on a core (`SimThread::core`); must only
  /// use online cores inside each thread's affinity mask (falling back to
  /// any online core when the intersection is empty, as Linux does).
  virtual void assign(const Machine& machine, std::vector<SimThread>& threads) = 0;

  /// Optional fast path for the engine's tick: the number of runnable
  /// threads placed on each core by the latest assign() call, or null
  /// when the scheduler does not track it. When provided it must equal
  /// exactly what counting `t.runnable && t.core >= 0` over the thread
  /// table yields, so the engine can skip that pass.
  virtual const std::vector<int>* runnable_per_core() const { return nullptr; }

  /// Quiet-span query (SimEngine::run_until): true when assign() on
  /// `threads` as they stand would provably leave every placement and
  /// runnable_per_core() unchanged — the last placement is a fixed point
  /// for the current inputs. The engine then elides the call; otherwise
  /// a span calls assign() itself. The default answers false.
  virtual bool placement_fixed_point(const Machine& machine,
                                     const std::vector<SimThread>& threads) const {
    (void)machine;
    (void)threads;
    return false;
  }

  /// Quiet-span query, asked at span entry and again after a span's
  /// assign() call left a fixed point: fills lo[i] and hi[i] with the
  /// closed interval of load values (`SimThread::load`) within which
  /// thread i keeps the last placement a fixed point while nothing but
  /// loads changes. The engine checks each tick's advanced loads against
  /// these bounds instead of asking again. False at entry means the
  /// scheduler takes no spans: the default answers false, so such a
  /// scheduler sees step(), and assign(), on every tick.
  virtual bool load_bounds(const std::vector<SimThread>& threads, double* lo,
                           double* hi) const {
    (void)threads;
    (void)lo;
    (void)hi;
    return false;
  }

  /// Accounts (telemetry only) for `ticks` assign() calls the engine
  /// elided because placement_fixed_point() held before each of them; a
  /// span tick that called assign() is not among them.
  virtual void note_elided_assigns(std::int64_t ticks) { (void)ticks; }

  virtual const char* name() const = 0;
};

}  // namespace hars
