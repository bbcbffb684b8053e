// The differential oracle's runs: the retained reference tick driven from
// outside the production library.
//
// SimEngine::step_reference() is the pre-TickScratch tick, kept verbatim;
// it is private, and run_reference_until() (a friend of SimEngine) is the
// only way to reach it. ReferenceSimBackend is a SimBackend whose
// run_until takes that path, and run_reference() runs an Experiment's
// pipeline through it with the reference GTS body and every audit on — so
// the managers also cross-check each search against the reference search
// (RuntimeManager / MpHarsManager audits). The QuietSpan*, audit and
// alloc-free tick tests and hars_fuzz compare production runs against
// these, bit for bit.
#pragma once

#include "backend/sim_backend.hpp"
#include "exp/experiment.hpp"
#include "hmp/sim_engine.hpp"

namespace hars {

/// Runs `engine` on the reference tick until `t` (absolute): no quiet
/// spans, every tick stepped.
void run_reference_until(SimEngine& engine, TimeUs t);

/// A SimBackend whose simulated time advances on the reference tick.
class ReferenceSimBackend final : public SimBackend {
 public:
  using SimBackend::SimBackend;
  void run_until(TimeUs t) override { run_reference_until(*sim_engine(), t); }
};

/// Runs `experiment`'s pipeline (Experiment::run_on) on a fresh sim
/// engine with the reference tick, the spec's OS scheduler or else
/// ReferenceGtsScheduler, and audits forced on. The run is simulated
/// whatever the spec's backend; telemetry is not armed.
ExperimentResult run_reference(const Experiment& experiment);

}  // namespace hars
