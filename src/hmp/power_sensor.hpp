// Sampled power sensor, modelled on the ODROID-XU3's INA231 current/voltage
// monitors: per-cluster readings at a fixed sampling period (the paper
// reports 263,808 us). Readings carry multiplicative noise; energy is
// integrated exactly from the ground-truth model each tick so perf/watt
// metrics do not depend on sampling luck, while estimator *training* data
// (PowerProfiler) goes through the noisy sampled path like the paper's.
#pragma once

#include <vector>

#include "hmp/power_model.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace hars {

struct PowerSample {
  TimeUs time = 0;
  std::vector<double> cluster_watts;  ///< One entry per cluster.
  double total_watts = 0.0;
};

class PowerSensor {
 public:
  static constexpr TimeUs kDefaultSamplePeriodUs = 263'808;
  /// Multiplicative reading noise (1% stddev); the power profiler's
  /// simulated readings carry the same.
  static constexpr double kDefaultNoiseStddev = 0.01;

  PowerSensor(const Machine& machine, const PowerModel& model,
              TimeUs sample_period_us = kDefaultSamplePeriodUs,
              double noise_stddev = kDefaultNoiseStddev,
              std::uint64_t seed = 42);

  /// Advances the sensor by one simulator tick with the given per-core
  /// busy fractions. Integrates energy and takes samples as the sampling
  /// period elapses. The reference tick's sensor path: defined in
  /// hars_oracle (src/oracle/reference_run.cpp), so a binary that links
  /// only hars cannot call it.
  void tick(TimeUs now, TimeUs tick_us, const std::vector<double>& core_busy);

  /// Allocation-free form of tick() for the engine's TickScratch path:
  /// `cluster_busy` carries the per-cluster busy sums already accumulated
  /// (in ascending core order, matching tick()'s own mask walk), and
  /// `cluster_freq` / `cluster_online` the per-cluster DVFS frequency and
  /// any-core-online snapshot, so this produces bit-identical
  /// energy/samples without the per-tick scratch vector and per-call
  /// machine queries tick() performs.
  /// Equals cluster_watts() then tick_watts() on the sensor's own scratch,
  /// in one pass.
  void tick_presummed(TimeUs now, TimeUs tick_us,
                      const std::vector<double>& cluster_busy,
                      const std::vector<double>& cluster_freq,
                      const std::vector<char>& cluster_online);

  /// The power half of tick_presummed: each cluster's watts for the given
  /// busy sums and snapshot into `watts` (sized to the cluster count), and
  /// their sum plus the base draw into `total`. A quiet span computes it
  /// once per planned variant.
  void cluster_watts(const std::vector<double>& cluster_busy,
                     const std::vector<double>& cluster_freq,
                     const std::vector<char>& cluster_online,
                     std::vector<double>& watts, double& total) const;

  /// The integration half of tick_presummed: one tick of `watts` and
  /// `total` as cluster_watts() computed them; takes a sample when the
  /// period elapsed.
  void tick_watts(TimeUs now, TimeUs tick_us, const std::vector<double>& watts,
                  double total);

  /// Exact accumulated energy in joules (per cluster / total).
  double cluster_energy_j(ClusterId cluster) const;
  double total_energy_j() const;

  /// Average power over the whole run so far.
  double average_power_w(TimeUs elapsed_us) const;

  /// Most recent noisy sample (empty until the first period elapses).
  const std::vector<PowerSample>& samples() const { return samples_; }

  /// The latest instantaneous (un-sampled, noiseless) total power.
  double instantaneous_power_w() const { return last_instant_power_; }

  void reset();

 private:
  const Machine* machine_;
  const PowerModel* model_;
  TimeUs sample_period_us_;
  double noise_stddev_;
  Rng rng_;

  /// Takes a noisy sample of `cluster_watts` when the period elapsed.
  void maybe_sample(TimeUs now, const std::vector<double>& cluster_watts);

  /// us_to_sec(tick_us). The tick length never changes in an engine's
  /// life, so the division runs once; the cached quotient is its result.
  double tick_sec(TimeUs tick_us) {
    if (tick_us != dt_tick_us_) {
      dt_tick_us_ = tick_us;
      dt_sec_ = us_to_sec(tick_us);
    }
    return dt_sec_;
  }

  std::vector<double> cluster_energy_j_;
  std::vector<double> scratch_watts_;  ///< Per-tick scratch (presummed path).
  TimeUs dt_tick_us_ = -1;  ///< Tick length dt_sec_ was computed for.
  double dt_sec_ = 0.0;     ///< us_to_sec(dt_tick_us_).
  double base_energy_j_ = 0.0;
  TimeUs next_sample_at_;
  std::vector<PowerSample> samples_;
  double last_instant_power_ = 0.0;
};

}  // namespace hars
