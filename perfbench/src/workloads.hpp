// The benchmark's four workloads. Each is a batch job: operations run one
// after another to completion, always on the same inputs, so every
// operation must reproduce the same result records.
//
//   steady  exynos5422, HARS-E, one 8-thread swaptions app, derived 50%
//           target, steady-state protocol, a long run (engine tick path)
//   churn   sd855, MP-HARS-E, generated churn scenario with every app
//           departing and target renegotiation (multi-app manager,
//           scenario dispatch, remove_app, GTS)
//   sweep   the Fig 5.1 and Fig 5.4 grids as one SweepEngine campaign on
//           two pool workers (SO oracle, baseline probes, caches, pool)
//   live    mock_linux backend, HARS-E, one swaptions workload, a long run
//           (manager decision path and the Backend HAL)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "probes.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// Simulated outcome of one operation; deterministic for a fixed seed.
struct Outcomes {
  double perf_per_watt = 0.0;   ///< Geomean over apps with a nonzero value.
  double norm_perf = 0.0;       ///< Geomean over apps with a nonzero value.
  double in_window = 0.0;       ///< Mean time-in-target-window fraction.
  double manager_cpu_pct = 0.0; ///< Modeled manager CPU (Fig 5.3(b)).
};

struct OpResult {
  /// Canonical result records, one entry per unit of work: one for an
  /// Experiment::run, one per case for a sweep campaign. Empty text marks
  /// a unit that threw.
  std::vector<std::string> records;
  double sim_s = 0.0;   ///< Simulated seconds of the measured spans.
  double host_s = 0.0;  ///< Host seconds the operation took.
  Outcomes outcomes;
  ProbeStats probes;            ///< What the probes saw during the op.
  std::vector<double> case_ms;  ///< Sweep: wall time of each case.
  double worker_busy = 0.0;     ///< Sweep: case time / (workers x wall).
};

struct Options {
  std::uint64_t seed = 1;
  /// Sensitivity self-check: busy-wait added to every GTS assign() on the
  /// simulated workloads (0 = off).
  std::int64_t assign_delay_ns = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One cold set-up of the workload's inputs with `seed`: the public
  /// set-up calls (scenario generation, calibration, the SO oracle, power
  /// profiling, backend and experiment construction). Adds per-layer
  /// set-up timings to `layer`. The workload's own seed must be set up
  /// before run() is called.
  virtual void setup(std::uint64_t seed, Metrics& layer) = 0;

  /// One operation on warm caches; `traced` arms the layer probes.
  virtual OpResult run(bool traced) = 0;

  /// Threads an operation keeps busy.
  virtual int threads() const { return 1; }
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Options& options);

}  // namespace perfbench
