#include "backend/mock_linux_backend.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace hars {

// --- FakeThreadOps ----------------------------------------------------

void FakeThreadOps::attach(const Machine* mirror,
                           const std::vector<int>* core_to_cpu) {
  ThreadOps::attach(mirror, core_to_cpu);
  const auto n = static_cast<std::size_t>(mirror->num_cores());
  core_busy_us_.assign(n, 0.0);
  tick_busy_.assign(n, 0.0);
}

int FakeThreadOps::spawn(AppId app, const WorkloadDesc& desc) {
  app_base_.resize(
      std::max(app_base_.size(), static_cast<std::size_t>(app) + 1), -1);
  app_base_[static_cast<std::size_t>(app)] = static_cast<int>(threads_.size());
  for (int i = 0; i < desc.threads; ++i) {
    SimThread t;
    t.affinity = mirror_->all_mask();
    t.runnable = true;  // Spinning workload: always wants CPU.
    t.app = app;
    t.local_index = i;
    t.id = next_id_++;
    threads_.push_back(t);
    work_.push_back(0.0);
  }
  reschedule();
  return desc.threads;
}

void FakeThreadOps::set_affinity(AppId app, int local_tid,
                                 const std::vector<int>& cpus) {
  calls_.push_back({app, local_tid, cpus});
  CpuMask mask;
  for (const int cpu : cpus) {
    for (std::size_t c = 0; c < core_to_cpu_->size(); ++c) {
      if ((*core_to_cpu_)[c] == cpu) {
        mask = mask | CpuMask::single(static_cast<CoreId>(c));
      }
    }
  }
  threads_.at(index_of(app, local_tid)).affinity = mask;
  // The kernel migrates an affine thread immediately; so does the model.
  reschedule();
}

int FakeThreadOps::current_cpu(AppId app, int local_tid) const {
  const CoreId core = threads_.at(index_of(app, local_tid)).core;
  if (core < 0) return -1;
  return (*core_to_cpu_)[static_cast<std::size_t>(core)];
}

TimeUs FakeThreadOps::cpu_time_us(AppId app, int local_tid) const {
  return threads_.at(index_of(app, local_tid)).cpu_time_us;
}

double FakeThreadOps::work_done(AppId app, int local_tid) const {
  return work_.at(index_of(app, local_tid));
}

void FakeThreadOps::reschedule() {
  if (!threads_.empty()) gts_.assign(*mirror_, threads_);
}

void FakeThreadOps::on_topology_change() { reschedule(); }

double FakeThreadOps::core_busy_us(CoreId core) const {
  const auto c = static_cast<std::size_t>(core);
  return c < core_busy_us_.size() ? core_busy_us_[c] : 0.0;
}

void FakeThreadOps::advance_to(TimeUs now) {
  const TimeUs dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0 || mirror_ == nullptr) return;
  std::fill(tick_busy_.begin(), tick_busy_.end(), 0.0);
  if (threads_.empty()) return;
  reschedule();
  // GTS's runnable-per-core table is exactly the per-core sharer count.
  const std::vector<int>& sharers = *gts_.runnable_per_core();
  if (dt != decay_dt_) {
    decay_ = threads_.front().load.decay_for(dt);
    decay_dt_ = dt;
  }
  const auto dt_us = static_cast<double>(dt);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    SimThread& t = threads_[i];
    const bool running = t.runnable && t.core >= 0;
    t.load.update_with_decay(running, decay_);
    if (!running) continue;
    const auto core = static_cast<std::size_t>(t.core);
    const double share_us = dt_us / sharers[core];
    t.cpu_time_us += static_cast<TimeUs>(share_us);
    work_[i] += mirror_->core_speed(t.core) * share_us * 1e-6;
    core_busy_us_[core] += share_us;
    tick_busy_[core] = std::min(1.0, tick_busy_[core] + share_us / dt_us);
  }
}

// --- MockLinuxBackend -------------------------------------------------

LinuxBackendConfig MockLinuxBackend::mock_config() {
  LinuxBackendConfig config;
  config.name = "mock_linux";
  return config;
}

MockLinuxBackend::MockLinuxBackend(FakeSysfs fixture, LinuxBackendConfig config)
    : MockLinuxBackend(std::make_unique<FakeSysfs>(std::move(fixture)),
                       std::make_unique<FakeThreadOps>(),
                       std::make_unique<FakeTimeSource>(), std::move(config)) {}

MockLinuxBackend::MockLinuxBackend(std::unique_ptr<FakeSysfs> sysfs,
                                   std::unique_ptr<FakeThreadOps> threads,
                                   std::unique_ptr<FakeTimeSource> time,
                                   LinuxBackendConfig config)
    : LinuxBackend(std::move(sysfs), std::move(threads), std::move(time),
                   std::move(config)) {
  fake_sysfs_ = static_cast<FakeSysfs*>(&this->sysfs());
  fake_threads_ = static_cast<FakeThreadOps*>(&this->thread_ops());
  fake_time_ = static_cast<FakeTimeSource*>(&this->time());
  // One meter models the board sensor: the first powercap domain with an
  // energy_uj node.
  for (const std::string& child : fake_sysfs_->list("sys/class/powercap")) {
    const std::string dir = "sys/class/powercap/" + child;
    if (!fake_sysfs_->exists(dir + "/energy_uj")) continue;
    meter_path_ = dir + "/energy_uj";
    if (const auto range = fake_sysfs_->read(dir + "/max_energy_range_uj")) {
      meter_range_uj_ = std::atof(range->c_str());
    }
    break;
  }
}

double MockLinuxBackend::core_busy_fraction(CoreId core) const {
  const TimeUs elapsed = fake_time_->now_us();
  if (elapsed <= 0) return 0.0;
  return std::clamp(
      fake_threads_->core_busy_us(core) / static_cast<double>(elapsed), 0.0,
      1.0);
}

void MockLinuxBackend::sample_counters(TimeUs now) {
  // Busy comes from the thread model; energy integrates the profiling
  // model over it and lands in the fixture's powercap counter via set()
  // (not write(), so the actuation log stays clean), wrapping at the
  // advertised range like a real energy_uj does.
  const TimeUs dt = now - last_energy_us_;
  last_energy_us_ = now;
  if (dt <= 0) return;
  const double watts =
      profiling_model().total_power(fake_threads_->tick_busy());
  energy_uj_ += watts * static_cast<double>(dt);  // 1 W*us = 1 uJ.
  if (meter_path_.empty()) return;
  double value = energy_uj_;
  if (meter_range_uj_ > 0.0) value = std::fmod(value, meter_range_uj_);
  char text[24];
  char* const end =
      std::to_chars(text, text + sizeof(text), static_cast<long long>(value))
          .ptr;
  fake_sysfs_->set(meter_path_, std::string(text, end));
}

}  // namespace hars
