// ReferenceGtsScheduler: the retained reference body of the GTS policy.
//
// Places threads with exactly GtsScheduler's decisions, but with the
// original per-call scratch allocation, no stable-placement skip and
// unconditional idle-pull scans. It keeps the Scheduler defaults: no
// runnable_per_core() (the engine counts sharers itself) and never a
// placement fixed point (the engine calls assign() on every tick). Part
// of the differential oracle (hars_oracle): run_reference() runs it under
// the reference tick so the QuietSpan* tests and hars_fuzz can compare
// the production GtsScheduler against it.
#pragma once

#include <vector>

#include "sched/gts.hpp"
#include "sched/scheduler.hpp"

namespace hars {

class ReferenceGtsScheduler final : public Scheduler {
 public:
  /// Reads the thresholds and idle_pull of `config`.
  explicit ReferenceGtsScheduler(GtsConfig config = {}) : config_(config) {}

  void assign(const Machine& machine, std::vector<SimThread>& threads) override;

  const char* name() const override { return "gts"; }

 private:
  GtsConfig config_;
};

}  // namespace hars
