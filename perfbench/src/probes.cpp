#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <string>
#include <utility>

#include "backend/backend_registry.hpp"
#include "core/runtime_manager.hpp"
#include "exp/variant_registry.hpp"
#include "sched/gts.hpp"

namespace perfbench {

using hars::AppId;
using hars::TimeUs;

// --- NsHistogram ----------------------------------------------------------

namespace {
const double kLogStep = std::log(1.01);
}  // namespace

NsHistogram::NsHistogram()
    : buckets_(static_cast<std::size_t>(kFine + kCoarse), 0) {}

void NsHistogram::add(std::int64_t ns) {
  ns = std::max<std::int64_t>(ns, 0);
  std::int64_t bucket = ns;
  if (ns >= kFine) {
    const auto step = static_cast<std::int64_t>(
        std::log(static_cast<double>(ns) / kFine) / kLogStep);
    bucket = kFine + std::min(step, kCoarse - 1);
  }
  ++buckets_[static_cast<std::size_t>(bucket)];
  ++count_;
  sum_ += static_cast<double>(ns);
}

void NsHistogram::merge(const NsHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double NsHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double NsHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))),
      1, count_);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < rank) continue;
    const auto b = static_cast<std::int64_t>(i);
    if (b < kFine) return static_cast<double>(b);
    return kFine * std::exp((static_cast<double>(b - kFine) + 0.5) * kLogStep);
  }
  return 0.0;
}

void ManagerStats::merge(const ManagerStats& o) {
  ticks += o.ticks;
  tick_ns_sum += o.tick_ns_sum;
  adapt_ns.merge(o.adapt_ns);
  searches += o.searches;
  candidates += o.candidates;
  modeled_adapt_us += o.modeled_adapt_us;
  moves += o.moves;
  modeled_cost_us += o.modeled_cost_us;
}

void ProbeStats::merge(const ProbeStats& o) {
  tick_ns.merge(o.tick_ns);
  assign_calls += o.assign_calls;
  assign_ns_sum += o.assign_ns_sum;
  placement_changes += o.placement_changes;
  migrations += o.migrations;
  core.merge(o.core);
  mphars.merge(o.mphars);
  dvfs_writes += o.dvfs_writes;
  dvfs_ns_sum += o.dvfs_ns_sum;
  placements += o.placements;
  place_ns_sum += o.place_ns_sum;
  backend_ticks += o.backend_ticks;
  backend_tick_ns_sum += o.backend_tick_ns_sum;
}

namespace {

// --- Shared state ---------------------------------------------------------

std::mutex g_stats_mutex;
ProbeStats g_stats;  // Guarded by g_stats_mutex.

std::atomic<bool> g_wrap_variants{false};
std::atomic<bool> g_wrap_backend{false};
std::atomic<bool> g_time_calls{false};

template <class Fn>
void with_stats(Fn&& fn) {
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  fn(g_stats);
}

// --- Busy-wait for the sensitivity self-check ----------------------------

void spin(std::int64_t iterations) {
  for (std::int64_t i = 0; i < iterations; ++i) asm volatile("");
}

/// Spin iterations per nanosecond on this host, measured once.
double spin_rate() {
  static const double rate = [] {
    constexpr std::int64_t kIterations = 20'000'000;
    const std::int64_t t0 = now_ns();
    spin(kIterations);
    return static_cast<double>(kIterations) /
           static_cast<double>(std::max<std::int64_t>(now_ns() - t0, 1));
  }();
  return rate;
}

// --- Scheduler ------------------------------------------------------------

std::int64_t migrations_of(const std::vector<hars::SimThread>& threads) {
  std::int64_t n = 0;
  for (const hars::SimThread& t : threads) n += t.migrations;
  return n;
}

class ProbedScheduler final : public hars::Scheduler {
 public:
  ProbedScheduler(bool timed, std::int64_t delay_iterations)
      : timed_(timed), delay_iterations_(delay_iterations) {}

  ~ProbedScheduler() override {
    if (!timed_) return;
    with_stats([&](ProbeStats& s) { s.merge(stats_); });
  }

  void assign(const hars::Machine& machine,
              std::vector<hars::SimThread>& threads) override {
    if (!timed_) {
      gts_.assign(machine, threads);
      spin(delay_iterations_);
      return;
    }
    const std::int64_t before = migrations_of(threads);
    const std::int64_t t0 = now_ns();
    if (last_start_ns_ > 0) stats_.tick_ns.add(t0 - last_start_ns_);
    last_start_ns_ = t0;
    gts_.assign(machine, threads);
    spin(delay_iterations_);
    stats_.assign_ns_sum += static_cast<double>(now_ns() - t0);
    ++stats_.assign_calls;
    const std::int64_t moved = migrations_of(threads) - before;
    if (moved > 0) {
      ++stats_.placement_changes;
      stats_.migrations += moved;
    }
  }

  const std::vector<int>* runnable_per_core() const override {
    return gts_.runnable_per_core();
  }

  const char* name() const override { return gts_.name(); }

 private:
  hars::GtsScheduler gts_;
  bool timed_;
  std::int64_t delay_iterations_;
  std::int64_t last_start_ns_ = 0;
  ProbeStats stats_;  ///< Scheduler fields only.
};

// --- Variants -------------------------------------------------------------

enum class ManagerLayer { kNone, kCore, kMphars };

ManagerLayer layer_of(const std::string& variant) {
  if (variant.rfind("HARS-", 0) == 0) return ManagerLayer::kCore;
  if (variant.rfind("MP-HARS-", 0) == 0 || variant == "CONS-I") {
    return ManagerLayer::kMphars;
  }
  return ManagerLayer::kNone;
}

/// Forwards every VariantInstance call to the wrapped instance; times
/// on_tick and decodes its modeled cost (poll, or poll + fixed +
/// per-candidate charges when a search ran; the default overhead model
/// of every manager).
class ProbedVariant final : public hars::VariantInstance {
 public:
  ProbedVariant(std::unique_ptr<hars::VariantInstance> base,
                ManagerLayer layer, bool timed)
      : base_(base.get()), layer_(layer), timed_(timed) {
    inner_ = std::move(base);
  }

  ~ProbedVariant() override {
    stats_.moves = base_->adaptations();
    with_stats([&](ProbeStats& s) {
      (layer_ == ManagerLayer::kCore ? s.core : s.mphars).merge(stats_);
    });
  }

  TimeUs on_tick(TimeUs now) override {
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    const TimeUs cost = base_->on_tick(now);
    const std::int64_t dt = timed_ ? now_ns() - t0 : 0;
    ++stats_.ticks;
    stats_.tick_ns_sum += static_cast<double>(dt);
    stats_.modeled_cost_us += static_cast<double>(cost);
    if (cost > kModel.poll_cost_us) {
      const TimeUs adapt_us = cost - kModel.poll_cost_us;
      ++stats_.searches;
      stats_.modeled_adapt_us += static_cast<double>(adapt_us);
      stats_.candidates += (adapt_us - kModel.adapt_fixed_cost_us) /
                           kModel.cost_per_candidate_us;
      if (timed_) stats_.adapt_ns.add(dt);
    }
    return cost;
  }

  void on_app_spawn(AppId app, const hars::PerfTarget& target) override {
    base_->on_app_spawn(app, target);
  }
  void on_app_kill(AppId app) override { base_->on_app_kill(app); }
  void on_app_target(AppId app, const hars::PerfTarget& target) override {
    base_->on_app_target(app, target);
  }
  std::vector<hars::TracePoint> trace(AppId app) const override {
    return base_->trace(app);
  }
  std::optional<hars::SystemState> current_state() const override {
    return base_->current_state();
  }
  std::optional<hars::SystemState> static_state() const override {
    return base_->static_state();
  }
  std::int64_t adaptations() const override { return base_->adaptations(); }

 private:
  static inline const hars::RuntimeManagerConfig kModel{};
  hars::VariantInstance* base_;  ///< Owned through inner_.
  ManagerLayer layer_;
  bool timed_;
  ManagerStats stats_;
};

// --- Backend --------------------------------------------------------------

/// Stands between a live backend's tick loop and its manager: the gap
/// between the end of one on_tick and the start of the next is the
/// backend's own share of a tick (advance threads, sample counters, pump
/// heartbeats).
class TickProxy final : public hars::ManagerHook {
 public:
  void reset(hars::ManagerHook* manager) {
    manager_ = manager;
    last_exit_ns_ = 0;
  }

  TimeUs on_tick(TimeUs now) override {
    const std::int64_t t0 = now_ns();
    if (last_exit_ns_ > 0) {
      ++ticks;
      backend_ns_sum += static_cast<double>(t0 - last_exit_ns_);
    }
    const TimeUs cost = manager_->on_tick(now);
    last_exit_ns_ = now_ns();
    return cost;
  }

  std::int64_t ticks = 0;
  double backend_ns_sum = 0.0;

 private:
  hars::ManagerHook* manager_ = nullptr;
  std::int64_t last_exit_ns_ = 0;
};

/// Forwards the whole Backend surface; times DVFS writes, placements and
/// the backend share of each tick. place_app keeps the interface default,
/// which places thread by thread through place().
class ProbedBackend final : public hars::Backend {
 public:
  explicit ProbedBackend(std::unique_ptr<hars::Backend> inner)
      : inner_(std::move(inner)) {}

  ~ProbedBackend() override {
    inner_->attach_manager(nullptr);
    with_stats([&](ProbeStats& s) {
      s.dvfs_writes += dvfs_writes_;
      s.dvfs_ns_sum += dvfs_ns_sum_;
      s.placements += placements_;
      s.place_ns_sum += place_ns_sum_;
      s.backend_ticks += proxy_.ticks;
      s.backend_tick_ns_sum += proxy_.backend_ns_sum;
    });
  }

  ProbedBackend(const ProbedBackend&) = delete;
  ProbedBackend& operator=(const ProbedBackend&) = delete;

  const char* name() const override { return inner_->name(); }
  hars::BackendCaps caps() const override { return inner_->caps(); }
  const hars::Machine& topology() const override { return inner_->topology(); }
  double core_busy_fraction(hars::CoreId core) const override {
    return inner_->core_busy_fraction(core);
  }
  TimeUs elapsed_work_us(AppId app, int local_tid) const override {
    return inner_->elapsed_work_us(app, local_tid);
  }
  double energy_j() const override { return inner_->energy_j(); }
  int num_apps() const override { return inner_->num_apps(); }
  bool app_alive(AppId app) const override { return inner_->app_alive(app); }
  int thread_count(AppId app) const override {
    return inner_->thread_count(app);
  }
  std::vector<int> thread_group_sizes(AppId app) const override {
    return inner_->thread_group_sizes(app);
  }
  hars::HeartbeatMonitor& heartbeats(AppId app) override {
    return inner_->heartbeats(app);
  }
  AppId add_workload(const hars::WorkloadDesc& desc) override {
    return inner_->add_workload(desc);
  }

  void set_dvfs_level(hars::ClusterId cluster, int level) override {
    const std::int64_t t0 = now_ns();
    inner_->set_dvfs_level(cluster, level);
    dvfs_ns_sum_ += static_cast<double>(now_ns() - t0);
    ++dvfs_writes_;
  }
  int dvfs_level(hars::ClusterId cluster) const override {
    return inner_->dvfs_level(cluster);
  }
  void place(AppId app, int local_tid, hars::CpuMask mask) override {
    const std::int64_t t0 = now_ns();
    inner_->place(app, local_tid, mask);
    place_ns_sum_ += static_cast<double>(now_ns() - t0);
    ++placements_;
  }
  hars::CoreId thread_core(AppId app, int local_tid) const override {
    return inner_->thread_core(app, local_tid);
  }
  void set_online_mask(hars::CpuMask mask) override {
    inner_->set_online_mask(mask);
  }

  hars::TimeSource& time() override { return inner_->time(); }
  void attach_manager(hars::ManagerHook* manager) override {
    if (manager == nullptr) {
      inner_->attach_manager(nullptr);
      return;
    }
    proxy_.reset(manager);
    inner_->attach_manager(&proxy_);
  }
  void run_until(TimeUs t) override { inner_->run_until(t); }
  const hars::PowerModel& profiling_model() const override {
    return inner_->profiling_model();
  }
  bool audit_enabled() const override { return inner_->audit_enabled(); }
  double manager_cpu_utilization_pct() const override {
    return inner_->manager_cpu_utilization_pct();
  }

 private:
  std::unique_ptr<hars::Backend> inner_;
  TickProxy proxy_;
  std::int64_t dvfs_writes_ = 0;
  double dvfs_ns_sum_ = 0.0;
  std::int64_t placements_ = 0;
  double place_ns_sum_ = 0.0;
};

}  // namespace

void install_probes() {
  hars::VariantRegistry& variants = hars::VariantRegistry::instance();
  for (const std::string& name : variants.names()) {
    const ManagerLayer layer = layer_of(name);
    if (layer == ManagerLayer::kNone) continue;
    const hars::VariantEntry* entry = variants.find(name);
    hars::VariantFactory base = entry->factory;
    variants.register_variant(
        name, entry->traits,
        [base, layer](const hars::VariantSetup& setup)
            -> std::unique_ptr<hars::VariantInstance> {
          std::unique_ptr<hars::VariantInstance> instance = base(setup);
          if (!g_wrap_variants || instance == nullptr || !instance->active()) {
            return instance;
          }
          return std::make_unique<ProbedVariant>(std::move(instance), layer,
                                                 g_time_calls);
        });
  }

  hars::BackendRegistry& backends = hars::BackendRegistry::instance();
  const hars::BackendEntry* mock = backends.find("mock_linux");
  auto base = mock->factory;
  backends.register_backend(
      {mock->name, mock->description,
       [base](const hars::BackendOptions& options)
           -> std::unique_ptr<hars::Backend> {
         std::unique_ptr<hars::Backend> backend = base(options);
         if (!g_wrap_backend) return backend;
         return std::make_unique<ProbedBackend>(std::move(backend));
       }},
      /*replace=*/true);
}

void set_probe_config(const ProbeConfig& config) {
  g_wrap_variants = config.wrap_variants;
  g_wrap_backend = config.wrap_backend;
  g_time_calls = config.time_calls;
}

ProbeStats take_probe_stats() {
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  return std::exchange(g_stats, ProbeStats{});
}

std::function<std::unique_ptr<hars::Scheduler>()> probed_gts_factory(
    bool timed, std::int64_t assign_delay_ns) {
  const std::int64_t iterations =
      assign_delay_ns > 0 ? static_cast<std::int64_t>(
                                static_cast<double>(assign_delay_ns) *
                                spin_rate())
                          : 0;
  return [timed, iterations] {
    return std::make_unique<ProbedScheduler>(timed, iterations);
  };
}

}  // namespace perfbench
