#include "hmp/power_sensor.hpp"

#include <cassert>

#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

PowerSensor::PowerSensor(const Machine& machine, const PowerModel& model,
                         TimeUs sample_period_us, double noise_stddev,
                         std::uint64_t seed)
    : machine_(&machine),
      model_(&model),
      sample_period_us_(sample_period_us),
      noise_stddev_(noise_stddev),
      rng_(seed),
      cluster_energy_j_(static_cast<std::size_t>(machine.num_clusters()), 0.0),
      scratch_watts_(static_cast<std::size_t>(machine.num_clusters()), 0.0),
      next_sample_at_(sample_period_us) {
  assert(sample_period_us > 0);
}

HARS_HOT void PowerSensor::tick_presummed(TimeUs now, TimeUs tick_us,
                                 const std::vector<double>& cluster_busy,
                                 const std::vector<double>& cluster_freq,
                                 const std::vector<char>& cluster_online) {
  // cluster_watts() and tick_watts() fused into one pass, with the same
  // expressions in the same order, so each cluster's watts go straight
  // from the power formula into its energy.
  const double dt_sec = tick_sec(tick_us);
  double total = 0.0;
  for (int c = 0; c < machine_->num_clusters(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double w = model_->cluster_power_given(
        c, cluster_freq[i], cluster_online[i] != 0, cluster_busy[i]);
    scratch_watts_[i] = w;
    cluster_energy_j_[i] += w * dt_sec;
    total += w;
  }
  base_energy_j_ += model_->base_watts() * dt_sec;
  last_instant_power_ = total + model_->base_watts();
  maybe_sample(now, scratch_watts_);
}

HARS_HOT void PowerSensor::cluster_watts(const std::vector<double>& cluster_busy,
                                         const std::vector<double>& cluster_freq,
                                         const std::vector<char>& cluster_online,
                                         TimeUs tick_us,
                                         std::vector<double>& watts,
                                         std::vector<double>& joules,
                                         double& total) {
  const double dt_sec = tick_sec(tick_us);
  double sum = 0.0;  // A local: `total` may alias `watts`.
  for (int c = 0; c < machine_->num_clusters(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double w = model_->cluster_power_given(
        c, cluster_freq[i], cluster_online[i] != 0, cluster_busy[i]);
    watts[i] = w;
    joules[i] = w * dt_sec;
    sum += w;
  }
  total = sum + model_->base_watts();
}

void PowerSensor::take_sample(TimeUs now,
                              const std::vector<double>& cluster_watts) {
  // Sample capture happens once per sampling period (~every 264 default
  // ticks) and retains history by design: a declared amortized allocator.
  allocg::AllowScope allow("power-sensor sample capture");
  PowerSample sample;
  sample.time = now;
  sample.cluster_watts.reserve(cluster_watts.size());
  double noisy_total = 0.0;
  for (double w : cluster_watts) {
    const double noisy = w * (1.0 + rng_.normal(0.0, noise_stddev_));
    sample.cluster_watts.push_back(noisy);
    noisy_total += noisy;
  }
  sample.total_watts = noisy_total;
  samples_.push_back(std::move(sample));
  next_sample_at_ += sample_period_us_;
}

double PowerSensor::cluster_energy_j(ClusterId cluster) const {
  return cluster_energy_j_[static_cast<std::size_t>(cluster)];
}

double PowerSensor::total_energy_j() const {
  double total = base_energy_j_;
  for (double e : cluster_energy_j_) total += e;
  return total;
}

double PowerSensor::average_power_w(TimeUs elapsed_us) const {
  if (elapsed_us <= 0) return 0.0;
  return total_energy_j() / us_to_sec(elapsed_us);
}

void PowerSensor::reset() {
  for (double& e : cluster_energy_j_) e = 0.0;
  base_energy_j_ = 0.0;
  samples_.clear();
  next_sample_at_ = sample_period_us_;
  last_instant_power_ = 0.0;
}

}  // namespace hars
