// Per-application data structure (thesis Table 4.1), kept in the
// AppRegistry that the MP-HARS runtime manager walks each cycle
// (Algorithm 3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/runtime_manager.hpp"  // TracePoint, kAdaptPeriodBeats
#include "core/thread_scheduler.hpp"
#include "heartbeats/heartbeat.hpp"
#include "util/common.hpp"

namespace hars {

/// Core-slot ownership flags (paper's USE / UNUSE and FREE / NOT_FREE).
inline constexpr int kUse = 1;
inline constexpr int kUnuse = 0;
inline constexpr int kFree = 1;
inline constexpr int kNotFree = 0;

struct AppNode {
  AppId app_id = -1;

  // --- Table 4.1 fields ---
  int nprocs_b = 0;  ///< Number of assigned big cores.
  int nprocs_l = 0;  ///< Number of assigned little cores.
  std::vector<int> use_b_core;  ///< Per big-core-slot USE/UNUSE.
  std::vector<int> use_l_core;  ///< Per little-core-slot USE/UNUSE.
  std::int64_t adaptation_index = -1;  ///< Last heartbeat index adapted on.
  double heartbeat_rate = 0.0;         ///< Latest windowed rate.
  int freezing_cnt_b = 0;  ///< Heartbeats to wait before big freq is controllable.
  int freezing_cnt_l = 0;  ///< Same for the little cluster.

  // --- Implementation bookkeeping ---
  PerfTarget target;
  int adapt_period = kAdaptPeriodBeats;
  ThreadSchedulerKind scheduler = ThreadSchedulerKind::kChunk;
  std::int64_t last_seen_hb = -1;
  int dec_big_core_cnt = 0;     ///< Cores to release at the next allocation.
  int dec_little_core_cnt = 0;
  std::vector<TracePoint> trace;

  int used_big_count() const {
    int n = 0;
    for (int u : use_b_core) n += (u == kUse);
    return n;
  }
  int used_little_count() const {
    int n = 0;
    for (int u : use_l_core) n += (u == kUse);
    return n;
  }
};

/// Per-cluster data structure (thesis Table 4.2).
struct ClusterData {
  int frozen_flag = 0;         ///< Set while any app's freezing count > 0.
  std::vector<int> free_core;  ///< FREE / NOT_FREE per core slot.
  int nfreq = 0;               ///< Current frequency level.

  int free_count() const {
    int n = 0;
    for (int f : free_core) n += (f == kFree);
    return n;
  }
};

}  // namespace hars
