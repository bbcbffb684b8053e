#include "backend/linux_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

#ifdef __linux__
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace hars {

namespace {

constexpr const char* kCpuRoot = "sys/devices/system/cpu";

std::string cpu_dir(int cpu) {
  return std::string(kCpuRoot) + "/cpu" + std::to_string(cpu);
}

/// Whitespace inside a proc/stat line (lines are split on '\n').
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

// --- WallTimeSource ---------------------------------------------------

WallTimeSource::WallTimeSource()
    : epoch_ns_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

TimeUs WallTimeSource::now_us() {
  const auto now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<TimeUs>((now_ns - epoch_ns_) / 1000);
}

void WallTimeSource::sleep_until(TimeUs t) {
  while (true) {
    const TimeUs now = now_us();
    if (now >= t) return;
    std::this_thread::sleep_for(std::chrono::microseconds(t - now));
  }
}

// --- RealThreadOps ----------------------------------------------------

namespace {
/// One work unit for the spinning workers: 1M iterations of dependent
/// arithmetic, roughly a millisecond on current cores.
constexpr std::uint64_t kSpinsPerWorkUnit = 1'000'000;
}  // namespace

struct RealThreadOps::Impl {
  struct Worker {
    std::thread thread;
    std::atomic<std::uint64_t> work_units{0};
    std::atomic<long> tid{0};
    std::atomic<bool> stop{false};
  };
  // Worker addresses must be stable across spawns: one deque-like vector
  // of unique_ptrs per app.
  std::vector<std::vector<std::unique_ptr<Worker>>> apps;

  Worker& worker(AppId app, int local_tid) {
    return *apps.at(static_cast<std::size_t>(app))
                .at(static_cast<std::size_t>(local_tid));
  }
  const Worker& worker(AppId app, int local_tid) const {
    return const_cast<Impl*>(this)->worker(app, local_tid);
  }
};

RealThreadOps::RealThreadOps() : impl_(std::make_unique<Impl>()) {}

RealThreadOps::~RealThreadOps() { stop_all(); }

void RealThreadOps::stop_all() {
  for (auto& workers : impl_->apps) {
    for (auto& w : workers) w->stop.store(true, std::memory_order_relaxed);
  }
  for (auto& workers : impl_->apps) {
    for (auto& w : workers) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
}

#ifdef __linux__

int RealThreadOps::spawn(AppId app, const WorkloadDesc& desc) {
  impl_->apps.resize(
      std::max(impl_->apps.size(), static_cast<std::size_t>(app) + 1));
  auto& workers = impl_->apps[static_cast<std::size_t>(app)];
  for (int i = 0; i < desc.threads; ++i) {
    auto w = std::make_unique<Impl::Worker>();
    Impl::Worker* worker = w.get();
    worker->thread = std::thread([worker] {
      worker->tid.store(static_cast<long>(::syscall(SYS_gettid)),
                        std::memory_order_release);
      volatile double sink = 1.0;
      while (!worker->stop.load(std::memory_order_relaxed)) {
        for (std::uint64_t s = 0; s < kSpinsPerWorkUnit; ++s) {
          sink = sink * 1.000000001 + 1e-9;
        }
        worker->work_units.fetch_add(1, std::memory_order_relaxed);
      }
    });
    workers.push_back(std::move(w));
  }
  return desc.threads;
}

namespace {
/// Blocks (bounded) until the worker has published its kernel tid.
long wait_for_tid(const std::atomic<long>& tid_atomic) {
  for (int spin = 0; spin < 10'000; ++spin) {
    const long tid = tid_atomic.load(std::memory_order_acquire);
    if (tid != 0) return tid;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return 0;
}

/// /proc/self/task/<tid>/stat fields after the comm field: utime is
/// field 14, stime 15, processor 39 (1-based over the whole line).
bool read_task_stat(long tid, TimeUs* cpu_us, int* cpu) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  if (!in) return false;
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 1));
  std::string tok;
  double utime = 0.0, stime = 0.0;
  int processor = -1;
  for (int i = 3; fields >> tok; ++i) {  // first token after ')' = field 3
    if (i == 14) utime = std::atof(tok.c_str());
    if (i == 15) stime = std::atof(tok.c_str());
    if (i == 39) processor = std::atoi(tok.c_str());
  }
  static const double us_per_tick = 1e6 / static_cast<double>(
      ::sysconf(_SC_CLK_TCK) > 0 ? ::sysconf(_SC_CLK_TCK) : 100);
  if (cpu_us != nullptr) {
    *cpu_us = static_cast<TimeUs>((utime + stime) * us_per_tick);
  }
  if (cpu != nullptr) *cpu = processor;
  return true;
}
}  // namespace

void RealThreadOps::set_affinity(AppId app, int local_tid,
                                 const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  const long tid = wait_for_tid(impl_->worker(app, local_tid).tid);
  if (tid == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(static_cast<unsigned>(cpu), &set);
  ::sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
}

int RealThreadOps::current_cpu(AppId app, int local_tid) const {
  const long tid = impl_->worker(app, local_tid).tid.load();
  int cpu = -1;
  if (tid != 0) read_task_stat(tid, nullptr, &cpu);
  return cpu;
}

TimeUs RealThreadOps::cpu_time_us(AppId app, int local_tid) const {
  const long tid = impl_->worker(app, local_tid).tid.load();
  TimeUs us = 0;
  if (tid != 0) read_task_stat(tid, &us, nullptr);
  return us;
}

bool RealThreadOps::can_place() const { return true; }

#else  // !__linux__

int RealThreadOps::spawn(AppId, const WorkloadDesc&) {
  throw std::runtime_error("RealThreadOps requires Linux");
}
void RealThreadOps::set_affinity(AppId, int, const std::vector<int>&) {}
int RealThreadOps::current_cpu(AppId, int) const { return -1; }
TimeUs RealThreadOps::cpu_time_us(AppId, int) const { return 0; }
bool RealThreadOps::can_place() const { return false; }

#endif  // __linux__

double RealThreadOps::work_done(AppId app, int local_tid) const {
  return static_cast<double>(
      impl_->worker(app, local_tid).work_units.load(std::memory_order_relaxed));
}

// --- LinuxBackend -----------------------------------------------------

namespace {

/// The probed spec, with the power parameters (and base draw) of an
/// explicitly-supplied platform grafted on when its shape matches.
PlatformSpec make_spec(const SysfsIo& sysfs, const LinuxBackendConfig& config) {
  PlatformSpec spec = PlatformSpec::from_sysfs(sysfs, config.name + "-probe");
  if (config.platform) {
    const PlatformSpec& given = *config.platform;
    if (given.clusters.size() == spec.clusters.size()) {
      for (std::size_t i = 0; i < spec.clusters.size(); ++i) {
        spec.clusters[i].power = given.clusters[i].power;
      }
      spec.base_watts = given.base_watts;
      spec.default_r0 = given.default_r0;
      spec.name = given.name + "@" + config.name;
    }
  }
  return spec;
}

}  // namespace

LinuxBackend::LinuxBackend(std::unique_ptr<SysfsIo> sysfs,
                           std::unique_ptr<ThreadOps> threads,
                           std::unique_ptr<TimeSource> time,
                           LinuxBackendConfig config)
    : sysfs_(std::move(sysfs)),
      threads_(std::move(threads)),
      time_(std::move(time)),
      config_(std::move(config)),
      topo_(probe_topology(*sysfs_)),
      spec_(make_spec(*sysfs_, config_)),
      machine_(spec_.make_machine()),
      power_model_(machine_, spec_) {
  if (config_.tick_us <= 0) {
    throw std::invalid_argument("LinuxBackend tick must be positive");
  }
  for (const auto& cluster : topo_.clusters) {
    for (const int cpu : cluster.cpus) core_to_cpu_.push_back(cpu);
  }
  threads_->attach(&machine_, &core_to_cpu_);
  governor_set_.assign(static_cast<std::size_t>(machine_.num_clusters()), 0);
  const auto n = static_cast<std::size_t>(machine_.num_cores());
  tick_busy_.assign(n, 0.0);
  core_stats_.assign(n, CoreStat{});
  probe_caps();
  probe_energy_meters();
  sync_mirror_from_sysfs();
  last_sample_us_ = time_->now_us();
  next_tick_ = last_sample_us_ + config_.tick_us;
}

LinuxBackend::~LinuxBackend() { threads_->stop_all(); }

std::string LinuxBackend::policy_dir(ClusterId cluster) const {
  return cpu_dir(topo_.clusters[static_cast<std::size_t>(cluster)].policy_cpu) +
         "/cpufreq";
}

CoreId LinuxBackend::core_of_cpu(int cpu) const {
  for (std::size_t c = 0; c < core_to_cpu_.size(); ++c) {
    if (core_to_cpu_[c] == cpu) return static_cast<CoreId>(c);
  }
  return -1;
}

int LinuxBackend::sample_proc_stat(bool baseline) {
  const auto text = sysfs_->read("proc/stat");
  if (!text) return 0;
  int lines = 0;
  const char* p = text->data();
  const char* const end = p + text->size();
  while (p != end) {
    const char* const eol = std::find(p, end, '\n');
    const char* q = p;
    p = eol == end ? end : eol + 1;
    // Per-cpu lines only: the aggregate "cpu " line has no digit.
    if (eol - q < 4 || std::string_view(q, 3) != "cpu" ||
        !std::isdigit(static_cast<unsigned char>(q[3]))) {
      continue;
    }
    int cpu = 0;
    const auto [label_end, label_ec] = std::from_chars(q + 3, eol, cpu);
    if (label_ec != std::errc()) continue;
    q = std::find_if(label_end, eol, is_blank);
    // Busy = total - idle - iowait (fields 4 and 5), matching the usual
    // userspace convention (top, mpstat); a short line sums what it has.
    double total = 0.0, idle_like = 0.0;
    for (int i = 0;; ++i) {
      q = std::find_if_not(q, eol, is_blank);
      double v = 0.0;
      const auto [next, ec] = std::from_chars(q, eol, v);
      if (ec != std::errc()) break;
      total += v;
      if (i == 3 || i == 4) idle_like += v;
      q = next;
    }
    ++lines;
    const CoreId core = core_of_cpu(cpu);
    if (core < 0) continue;
    const auto c = static_cast<std::size_t>(core);
    CoreStat& stat = core_stats_[c];
    const double busy = total - idle_like;
    if (baseline) {
      stat.busy0 = busy;
      stat.total0 = total;
    } else {
      const double dt = total - stat.total;
      tick_busy_[c] = dt > 0.0 ? std::clamp((busy - stat.busy) / dt, 0.0, 1.0)
                               : 0.0;
    }
    stat.busy = busy;
    stat.total = total;
  }
  return lines;
}

void LinuxBackend::probe_caps() {
  caps_.simulated = false;
  const std::string p = policy_dir(0);
  caps_.dvfs = sysfs_->exists(p + "/scaling_setspeed") ||
               sysfs_->exists(p + "/scaling_min_freq");
  caps_.placement = threads_->can_place();
  caps_.hotplug = false;
  for (const int cpu : core_to_cpu_) {
    if (sysfs_->exists(cpu_dir(cpu) + "/online")) {
      caps_.hotplug = true;
      break;
    }
  }
  // The probe's proc/stat sample doubles as the lifetime baseline.
  caps_.core_stats = sample_proc_stat(/*baseline=*/true) > 0;
}

void LinuxBackend::probe_energy_meters() {
  for (const std::string& root : {std::string("sys/class/powercap")}) {
    for (const std::string& child : sysfs_->list(root)) {
      const std::string dir = root + "/" + child;
      // Skip powercap subzones (intel-rapl:0:0) so package energy is not
      // double-counted; top-level domains have at most one ':'.
      if (std::count(child.begin(), child.end(), ':') > 1) continue;
      const auto cur = sysfs_->read(dir + "/energy_uj");
      if (!cur) continue;
      EnergyMeter meter;
      meter.path = dir + "/energy_uj";
      meter.last_uj = std::atoll(cur->c_str());
      if (const auto range = sysfs_->read(dir + "/max_energy_range_uj")) {
        meter.range_uj = std::atoll(range->c_str());
      }
      meters_.push_back(std::move(meter));
    }
  }
  caps_.energy = !meters_.empty();
}

void LinuxBackend::sync_mirror_from_sysfs() {
  for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
    const auto cur = sysfs_->read(policy_dir(cl) + "/scaling_cur_freq");
    if (!cur) continue;
    const double ghz = std::atof(cur->c_str()) * 1e-6;
    const auto& ladder =
        spec_.clusters[static_cast<std::size_t>(cl)].topology.freqs_ghz;
    int best = static_cast<int>(ladder.size()) - 1;
    for (int i = 0; i < static_cast<int>(ladder.size()); ++i) {
      if (std::abs(ladder[static_cast<std::size_t>(i)] - ghz) <
          std::abs(ladder[static_cast<std::size_t>(best)] - ghz)) {
        best = i;
      }
    }
    machine_.set_freq_level(cl, best);
  }
  CpuMask online;
  for (CoreId c = 0; c < machine_.num_cores(); ++c) {
    const auto state = sysfs_->read(cpu_dir(core_to_cpu_[c]) + "/online");
    if (!state || *state != "0") online = online | CpuMask::single(c);
  }
  machine_.set_online_mask(online);
}

double LinuxBackend::core_busy_fraction(CoreId core) const {
  const CoreStat& stat = core_stats_[static_cast<std::size_t>(core)];
  const double dt = stat.total - stat.total0;
  if (dt <= 0.0) return 0.0;
  return std::clamp((stat.busy - stat.busy0) / dt, 0.0, 1.0);
}

void LinuxBackend::poll_energy_meters() const {
  for (const EnergyMeter& meter : meters_) {
    const auto cur_text = sysfs_->read(meter.path);
    if (!cur_text) continue;
    const long long cur = std::atoll(cur_text->c_str());
    if (cur >= meter.last_uj) {
      energy_accum_uj_ += static_cast<double>(cur - meter.last_uj);
    } else if (meter.range_uj > 0) {
      // Counter wrapped at max_energy_range_uj.
      energy_accum_uj_ +=
          static_cast<double>(meter.range_uj - meter.last_uj + cur);
    } else {
      energy_accum_uj_ += static_cast<double>(cur);
    }
    meter.last_uj = cur;
  }
}

double LinuxBackend::energy_j() const {
  obs::counter_add(obs::catalog().backend_energy_reads);
  if (!meters_.empty()) {
    poll_energy_meters();
    return energy_accum_uj_ * 1e-6;
  }
  return modeled_energy_j_;
}

std::vector<int> LinuxBackend::thread_group_sizes(AppId app) const {
  const Workload& w = workloads_[static_cast<std::size_t>(app)];
  if (!w.desc.group_sizes.empty()) return w.desc.group_sizes;
  return {w.desc.threads};
}

AppId LinuxBackend::add_workload(const WorkloadDesc& desc) {
  if (desc.threads <= 0) {
    throw std::invalid_argument("workload needs at least one thread");
  }
  if (desc.work_per_beat <= 0.0) {
    throw std::invalid_argument("work_per_beat must be positive");
  }
  const AppId id = static_cast<AppId>(workloads_.size());
  Workload w;
  w.desc = desc;
  w.desc.threads = threads_->spawn(id, desc);
  workloads_.push_back(std::move(w));
  return id;
}

void LinuxBackend::set_dvfs_level(ClusterId cluster, int level) {
  obs::counter_add(obs::catalog().backend_dvfs_writes);
  const int previous = machine_.freq_level(cluster);
  machine_.set_freq_level(cluster, level);  // Clamps like cpufreq does.
  const int applied = machine_.freq_level(cluster);
  const long long khz = std::llround(
      machine_.freq_ghz_at_level(cluster, applied) * 1e6);
  if (config_.dry_run) return;
  const std::string dir = policy_dir(cluster);
  const std::string value = std::to_string(khz);
  if (sysfs_->exists(dir + "/scaling_setspeed")) {
    // Latch only an accepted write: a refused one is retried next time.
    char& governor_set = governor_set_[static_cast<std::size_t>(cluster)];
    if (governor_set == 0 &&
        sysfs_->write(dir + "/scaling_governor", "userspace")) {
      governor_set = 1;
    }
    sysfs_->write(dir + "/scaling_setspeed", value);
  } else {
    // No userspace governor: pin the policy bounds to the target. cpufreq
    // rejects min > max, so a rise moves max first and a fall min first.
    const bool rising = applied > previous;
    sysfs_->write(dir + (rising ? "/scaling_max_freq" : "/scaling_min_freq"),
                  value);
    sysfs_->write(dir + (rising ? "/scaling_min_freq" : "/scaling_max_freq"),
                  value);
  }
}

void LinuxBackend::place(AppId app, int local_tid, CpuMask mask) {
  obs::counter_add(obs::catalog().backend_placements);
  std::vector<int> cpus;
  for (CoreId c = mask.first(); c >= 0; c = mask.next(c)) {
    cpus.push_back(core_to_cpu_[static_cast<std::size_t>(c)]);
  }
  if (config_.dry_run) return;
  threads_->set_affinity(app, local_tid, cpus);
}

CoreId LinuxBackend::thread_core(AppId app, int local_tid) const {
  return core_of_cpu(threads_->current_cpu(app, local_tid));
}

void LinuxBackend::set_online_mask(CpuMask mask) {
  obs::counter_add(obs::catalog().backend_hotplug_writes);
  CpuMask accepted;
  for (CoreId c = 0; c < machine_.num_cores(); ++c) {
    const bool want = mask.test(c);
    const std::string path =
        cpu_dir(core_to_cpu_[static_cast<std::size_t>(c)]) + "/online";
    if (!sysfs_->exists(path)) {
      // Untoggleable core (the boot cpu): stays online whatever is asked.
      accepted = accepted | CpuMask::single(c);
      continue;
    }
    if (want != machine_.is_online(c) && !config_.dry_run) {
      sysfs_->write(path, want ? "1" : "0");
    }
    if (want) accepted = accepted | CpuMask::single(c);
  }
  machine_.set_online_mask(accepted);
  threads_->on_topology_change();
}

void LinuxBackend::sample_counters(TimeUs now) {
  sample_proc_stat(/*baseline=*/false);
  if (meters_.empty()) {
    // No meter: integrate the platform-parameter model over the probed
    // busy fractions, so perf-per-watt metrics stay defined.
    const double dt_s = static_cast<double>(now - last_sample_us_) * 1e-6;
    if (dt_s > 0.0) {
      modeled_energy_j_ += power_model_.total_power(tick_busy_) * dt_s;
    }
  }
  last_sample_us_ = now;
}

void LinuxBackend::tick(TimeUs now) {
  // The backend.tick_ns clock pair runs only while telemetry is armed;
  // the manager's pair always runs (manager_cpu_utilization_pct).
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point();
  threads_->advance_to(now);
  sample_counters(now);
  for (Workload& w : workloads_) {
    if (!w.alive) continue;
    double work = 0.0;
    for (int i = 0; i < w.desc.threads; ++i) {
      work += threads_->work_done(static_cast<AppId>(&w - workloads_.data()), i);
    }
    const auto beats = static_cast<std::int64_t>(work / w.desc.work_per_beat);
    for (; w.beats_emitted < beats; ++w.beats_emitted) w.monitor.emit(now);
  }
  if (manager_ != nullptr) {
    const auto m0 = std::chrono::steady_clock::now();
    manager_->on_tick(now);
    manager_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - m0)
                       .count();
  }
  obs::counter_add(obs::catalog().backend_ticks);
  if (timed) {
    obs::hist_observe(obs::catalog().backend_tick_ns,
                      static_cast<double>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()));
  }
}

void LinuxBackend::run_until(TimeUs t) {
  while (time_->now_us() < t) {
    const TimeUs target = std::min(t, next_tick_);
    time_->sleep_until(target);
    if (target == next_tick_) {
      tick(target);
      next_tick_ += config_.tick_us;
    }
  }
}

double LinuxBackend::manager_cpu_utilization_pct() const {
  const TimeUs elapsed = const_cast<TimeSource&>(*time_).now_us();
  if (elapsed <= 0) return 0.0;
  const double manager_us = static_cast<double>(manager_ns_) * 1e-3;
  return 100.0 * manager_us / static_cast<double>(elapsed);
}

}  // namespace hars
