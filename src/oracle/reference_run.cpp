#include "oracle/reference_run.hpp"

#include <memory>

#include "oracle/reference_gts.hpp"

namespace hars {

void run_reference_until(SimEngine& engine, TimeUs t) {
  while (engine.now_ < t) engine.step_reference();
}

ExperimentResult run_reference(const Experiment& experiment) {
  const ExperimentSpec& spec = experiment.spec();
  SimConfig config;
  config.audit = true;
  SimEngine engine(spec.platform,
                   spec.make_scheduler
                       ? spec.make_scheduler()
                       : std::make_unique<ReferenceGtsScheduler>(),
                   config);
  ReferenceSimBackend backend(engine);
  return experiment.run_on(backend);
}

}  // namespace hars
