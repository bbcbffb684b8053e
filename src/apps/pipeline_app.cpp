#include "apps/pipeline_app.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/alloc_guard.hpp"

namespace hars {

int PipelineApp::total_threads(const PipelineConfig& config) {
  int n = 0;
  for (const auto& s : config.stages) n += s.threads;
  return n;
}

PipelineApp::PipelineApp(std::string name, const PipelineConfig& config)
    : App(std::move(name), total_threads(config), config.speed),
      config_(config),
      rng_(config.seed) {
  if (config_.stages.empty()) {
    throw std::invalid_argument("PipelineApp requires at least one stage");
  }
  for (int s = 0; s < num_stages(); ++s) {
    for (int t = 0; t < config_.stages[static_cast<std::size_t>(s)].threads; ++t) {
      workers_.push_back(Worker{s, false, 0.0});
    }
  }
  queues_.resize(static_cast<std::size_t>(num_stages()));
}

int PipelineApp::stage_of_thread(int local_tid) const {
  return workers_[static_cast<std::size_t>(local_tid)].stage;
}

std::vector<int> PipelineApp::thread_group_sizes() const {
  std::vector<int> sizes;
  sizes.reserve(config_.stages.size());
  for (const auto& s : config_.stages) sizes.push_back(s.threads);
  return sizes;
}

bool PipelineApp::try_acquire(Worker& worker) {
  auto& queue = queues_[static_cast<std::size_t>(worker.stage)];
  if (queue.empty()) return false;
  queue.pop_front();
  worker.has_item = true;
  double jitter = 1.0;
  if (config_.work_noise > 0.0) {
    jitter = std::max(0.1, 1.0 + rng_.normal(0.0, config_.work_noise));
  }
  worker.remaining =
      config_.stages[static_cast<std::size_t>(worker.stage)].work_per_item * jitter;
  return true;
}

void PipelineApp::begin_tick(TimeUs /*now*/) {
  // Queue nodes are workload-model state, not engine mechanics: deque
  // chunk growth is bounded by max_in_flight and declared amortized.
  allocg::AllowScope allow("pipeline admission queue");
  // Admission control: keep the pipeline primed up to max_in_flight.
  while (in_flight_ < config_.max_in_flight &&
         (config_.max_items < 0 || items_admitted_ < config_.max_items)) {
    queues_.front().push_back(1);
    ++items_admitted_;
    ++in_flight_;
  }
}

bool PipelineApp::begin_tick_idle() const {
  return in_flight_ >= config_.max_in_flight ||
         (config_.max_items >= 0 && items_admitted_ >= config_.max_items);
}

bool PipelineApp::runnable(int local_tid) const {
  const Worker& w = workers_[static_cast<std::size_t>(local_tid)];
  if (w.has_item) return true;
  return !queues_[static_cast<std::size_t>(w.stage)].empty();
}

TimeUs PipelineApp::execute(int local_tid, TimeUs share_us, CoreType type,
                            double freq_ghz) {
  Worker& w = workers_[static_cast<std::size_t>(local_tid)];
  const double speed = thread_speed(type, freq_ghz);
  if (speed <= 0.0 || share_us <= 0) return 0;

  TimeUs used = 0;
  while (used < share_us) {
    if (!w.has_item && !try_acquire(w)) break;
    const TimeUs left_us = share_us - used;
    const WorkUnits can_do = speed * us_to_sec(left_us);
    const WorkUnits done = std::min(can_do, w.remaining);
    w.remaining -= done;
    used += static_cast<TimeUs>(done / speed * kUsPerSec);
    if (w.remaining <= 1e-12) {
      // Item hand-off touches inter-stage queues (workload-model state,
      // amortized by retained deque chunks and vector capacity).
      allocg::AllowScope allow("pipeline item hand-off");
      w.has_item = false;
      const int next_stage = w.stage + 1;
      if (next_stage < num_stages()) {
        queues_[static_cast<std::size_t>(next_stage)].push_back(1);
      } else {
        retired_this_tick_.push_back(0);
        ++items_retired_;
        --in_flight_;
      }
    }
  }
  return used;
}

bool PipelineApp::plan_quiet(const QuietGrant* grants,
                             QuietLane* lanes) const {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const QuietGrant& grant = grants[i];
    QuietLane& lane = lanes[i];
    lane = QuietLane{};
    // An idle worker only runs with a queued item, which ends the span.
    if (!workers_[i].has_item || grant.share_us <= 0) continue;
    const double speed = thread_speed(grant.type, grant.freq_ghz);
    if (speed <= 0.0) continue;  // execute() returns 0 and changes nothing.
    lane.work = speed * us_to_sec(grant.share_us);
    // execute() hands the item off once remaining <= 1e-12.
    lane.floor = 1e-12;
    lane.used_us = static_cast<TimeUs>(lane.work / speed * kUsPerSec);
    // A truncated used time sends execute() round its loop again.
    if (lane.used_us < grant.share_us) return false;
  }
  return true;
}

bool PipelineApp::export_quiet(double* rem) const {
  bool ok = true;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    rem[i] = w.remaining;
    // An idle worker takes a queued item on its next share.
    ok &= w.has_item || queues_[static_cast<std::size_t>(w.stage)].empty();
  }
  return ok;
}

void PipelineApp::import_quiet(const double* rem) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].remaining = rem[i];
  }
}

void PipelineApp::end_tick(TimeUs now) {
  for (std::size_t i = 0; i < retired_this_tick_.size(); ++i) {
    heartbeats().emit(now);
  }
  retired_this_tick_.clear();
}

bool PipelineApp::finished() const {
  return config_.max_items >= 0 && items_retired_ >= config_.max_items;
}

}  // namespace hars
