#include "apps/data_parallel_app.hpp"

#include <algorithm>
#include <cassert>

namespace hars {

DataParallelApp::DataParallelApp(std::string name, const DataParallelConfig& config)
    : App(std::move(name), config.threads, config.speed),
      config_(config),
      workload_(config.workload, Rng(config.seed)),
      rng_(Rng(config.seed).fork(0xDA7A)),
      remaining_(static_cast<std::size_t>(config.threads), 0.0),
      warmup_remaining_(config.warmup_work) {
  if (warmup_remaining_ <= 0.0) start_iteration();
}

void DataParallelApp::start_iteration() {
  if (config_.max_iterations >= 0 && iteration_ >= config_.max_iterations) {
    iteration_open_ = false;
    return;
  }
  const WorkUnits total = workload_.next(iteration_);
  const WorkUnits equal_share = total / config_.threads;
  open_threads_ = 0;
  for (auto& r : remaining_) {
    double jitter = 1.0;
    if (config_.imbalance > 0.0) {
      jitter = std::max(0.1, 1.0 + rng_.normal(0.0, config_.imbalance));
    }
    r = equal_share * jitter;
    if (r > 0.0) ++open_threads_;
  }
  iteration_open_ = true;
}

bool DataParallelApp::runnable(int local_tid) const {
  if (warmup_remaining_ > 0.0) return local_tid == 0;  // Serial input phase.
  if (!iteration_open_) return false;
  return remaining_[static_cast<std::size_t>(local_tid)] > 0.0;
}

void DataParallelApp::refresh_runnable(bool* out) const {
  // One virtual dispatch answers for all threads (engine hot path);
  // flag i equals runnable(i) exactly.
  if (warmup_remaining_ > 0.0) {
    out[0] = true;  // Serial input phase.
    std::fill(out + 1, out + thread_count(), false);
    return;
  }
  if (!iteration_open_) {
    std::fill(out, out + thread_count(), false);
    return;
  }
  for (std::size_t i = 0; i < remaining_.size(); ++i) out[i] = remaining_[i] > 0.0;
}

TimeUs DataParallelApp::execute(int local_tid, TimeUs share_us, CoreType type,
                                double freq_ghz) {
  const double speed = thread_speed(type, freq_ghz);  // work-units / sec
  if (speed <= 0.0 || share_us <= 0) return 0;

  // us_to_sec is a genuine FP division; the share repeats across the
  // threads of a tick (equal per-core shares), so one cached conversion
  // serves the whole barrier. Bit-identical: the cached value is the
  // division's result.
  if (share_us != cached_share_us_) {
    cached_share_us_ = share_us;
    cached_share_sec_ = us_to_sec(share_us);
    cached_speed_ = -1.0;  // cached_used_ depends on the share too.
  }

  if (warmup_remaining_ > 0.0) {
    assert(local_tid == 0);
    const WorkUnits can_do = speed * cached_share_sec_;
    const WorkUnits done = std::min(can_do, warmup_remaining_);
    warmup_remaining_ -= done;
    return static_cast<TimeUs>(done / speed * kUsPerSec);
  }

  WorkUnits& rem = remaining_[static_cast<std::size_t>(local_tid)];
  if (rem <= 0.0) return 0;
  const WorkUnits can_do = speed * cached_share_sec_;
  if (rem > can_do) {
    // Full-share case (the bulk of a barrier's ticks): done == can_do, so
    // the used-time division has the same operands for every thread at
    // this (speed, share) — cache its result.
    rem -= can_do;
    if (speed != cached_speed_) {
      cached_speed_ = speed;
      cached_used_ = static_cast<TimeUs>(can_do / speed * kUsPerSec);
    }
    return cached_used_;
  }
  const WorkUnits done = rem;  // == std::min(can_do, rem) with rem <= can_do.
  rem = 0.0;
  --open_threads_;  // Thread reached the barrier.
  return static_cast<TimeUs>(done / speed * kUsPerSec);
}

void DataParallelApp::end_tick(TimeUs now) {
  if (warmup_remaining_ > 0.0) return;
  if (warmup_remaining_ <= 0.0 && !iteration_open_ && iteration_ == 0 &&
      config_.warmup_work > 0.0) {
    // Warm-up finished this tick; open the first iteration.
    start_iteration();
    return;
  }
  if (!iteration_open_) return;
  // open_threads_ counts remaining_ entries > 0 (maintained by execute),
  // so the barrier check is O(1) instead of a scan.
  if (open_threads_ > 0) return;  // Barrier not yet reached.
  heartbeats().emit(now);
  ++iteration_;
  start_iteration();
}

bool DataParallelApp::plan_quiet(const QuietGrant* grants,
                                 QuietLane* lanes) const {
  for (int i = 0; i < thread_count(); ++i) {
    const QuietGrant& grant = grants[i];
    QuietLane& lane = lanes[i];
    lane = QuietLane{};
    if (grant.share_us <= 0) continue;
    const double speed = thread_speed(grant.type, grant.freq_ghz);
    if (speed <= 0.0) continue;  // execute() returns 0 and changes nothing.
    lane.work = speed * us_to_sec(grant.share_us);
    lane.floor = 0.0;
    lane.used_us = static_cast<TimeUs>(lane.work / speed * kUsPerSec);
    lane.speed = speed;
  }
  return true;
}

bool DataParallelApp::export_quiet(double* rem) const {
  std::copy(remaining_.begin(), remaining_.end(), rem);
  // Serial input phase: only thread 0 runs, and end_tick returns early
  // while warm-up work is left.
  if (warmup_remaining_ > 0.0) {
    rem[0] = warmup_remaining_;
    return true;
  }
  // No iteration open: nothing runs, and end_tick changes nothing once the
  // iteration budget is spent.
  if (!iteration_open_) return finished();
  // The barrier must stay open: end_tick emits when it closes.
  return open_threads_ > 0;
}

int DataParallelApp::quiet_retires() const {
  // The thread that closes the barrier makes end_tick emit a heartbeat.
  if (warmup_remaining_ > 0.0 || !iteration_open_) return 0;
  return open_threads_ - 1;
}

void DataParallelApp::import_quiet(const double* rem) {
  if (warmup_remaining_ > 0.0) {
    warmup_remaining_ = rem[0];
    return;
  }
  std::copy(rem, rem + remaining_.size(), remaining_.begin());
  open_threads_ = static_cast<int>(
      std::count_if(remaining_.begin(), remaining_.end(),
                    [](WorkUnits r) { return r > 0.0; }));
}

bool DataParallelApp::finished() const {
  return config_.max_iterations >= 0 && iteration_ >= config_.max_iterations &&
         !iteration_open_;
}

}  // namespace hars
