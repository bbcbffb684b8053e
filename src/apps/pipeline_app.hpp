// Pipeline application model (PARSEC ferret: a 6-stage pipeline).
//
// Items flow through a chain of stages; each stage has its own threads and
// per-item work. A heartbeat is emitted each time an item leaves the last
// stage. Threads are numbered stage by stage (stage 0's threads first),
// which is what makes the chunk-based scheduler map whole stages onto one
// cluster and bottleneck the pipeline (paper §3.1.3 / Figure 3.2) while
// the interleaving scheduler spreads each stage across both clusters.
#pragma once

#include <deque>
#include <vector>

#include "apps/app.hpp"
#include "apps/workload.hpp"
#include "util/rng.hpp"

namespace hars {

struct PipelineStageSpec {
  int threads = 1;
  WorkUnits work_per_item = 1.0;
};

struct PipelineConfig {
  std::vector<PipelineStageSpec> stages;
  SpeedModel speed;
  int max_in_flight = 32;  ///< Items admitted but not yet retired.
  double work_noise = 0.0; ///< Relative jitter on per-item stage work.
  std::int64_t max_items = -1;  ///< <0: unbounded input.
  std::uint64_t seed = 1;
};

class PipelineApp final : public App {
 public:
  PipelineApp(std::string name, const PipelineConfig& config);

  bool runnable(int local_tid) const override;
  TimeUs execute(int local_tid, TimeUs share_us, CoreType type,
                 double freq_ghz) override;
  void begin_tick(TimeUs now) override;
  /// Admission is idle while the pipeline is full or the input is spent.
  bool begin_tick_idle() const override;
  void end_tick(TimeUs now) override;
  bool finished() const override;

  /// Quiet spans use execute()'s first pass over a held item: can_do =
  /// speed * us_to_sec(share) and used = can_do / speed * kUsPerSec. A
  /// quiet tick moves no item: every worker holding one keeps more than
  /// its lane's work beyond the hand-off threshold (the lane's floor,
  /// 1e-12), and every idle worker's input queue is empty, so no hand-off,
  /// RNG draw or heartbeat happens.
  bool plan_quiet(const QuietGrant* grants, QuietLane* lanes) const override;
  bool export_quiet(double* rem) const override;
  void import_quiet(const double* rem) override;

  int num_stages() const { return static_cast<int>(config_.stages.size()); }
  int stage_of_thread(int local_tid) const;

  /// One thread group per pipeline stage (§3.1.4's thread hierarchy).
  std::vector<int> thread_group_sizes() const override;
  std::int64_t items_retired() const { return items_retired_; }

  const PipelineConfig& config() const { return config_; }

 private:
  static int total_threads(const PipelineConfig& config);

  struct Worker {
    int stage = 0;
    bool has_item = false;
    WorkUnits remaining = 0.0;  ///< Work left on the held item.
  };

  /// Tries to hand `worker` a new item from its stage's input queue.
  bool try_acquire(Worker& worker);

  PipelineConfig config_;
  Rng rng_;
  std::vector<Worker> workers_;
  /// queue_[s]: items waiting to *enter* stage s. queue_[0] is fed by the
  /// admission control in begin_tick.
  std::vector<std::deque<int>> queues_;
  std::vector<TimeUs> retired_this_tick_;
  std::int64_t items_admitted_ = 0;
  std::int64_t items_retired_ = 0;
  int in_flight_ = 0;
};

}  // namespace hars
