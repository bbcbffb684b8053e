// backend_bench: the Backend HAL interface-overhead campaign.
//
// The HAL put a virtual-dispatch boundary between the runtime managers
// and the simulator; this bench makes that boundary's cost a tracked,
// gated metric (BENCH_backend.json, merged by bench_report like the
// other BENCH artifacts). Two measurements:
//
//  1. Call census: a counting decorator over SimBackend tallies every
//     HAL call a HARS-E run actually issues; the same run without the
//     decorator gives the min-of-reps wall clock.
//  2. Dispatch micro: ns/call for a hot observe/actuate mix through the
//     concrete SimBackend (devirtualized) and through Backend& (vtable);
//     the delta times the call census, as a share of the run's wall
//     clock, is the interface overhead — gated at --budget percent
//     (default 2).
//
//   backend_bench [--duration SEC] [--reps N] [--budget PCT] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/power_profiler.hpp"
#include "core/runtime_manager.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"
#include "sweep/result_sink.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Forwards every Backend call to the wrapped backend, counting it.
class CountingBackend final : public Backend {
 public:
  CountingBackend(Backend& inner, long long& calls)
      : inner_(inner), calls_(calls) {}

  const char* name() const override { return inner_.name(); }
  BackendCaps caps() const override { return inner_.caps(); }
  const Machine& topology() const override {
    ++calls_;
    return inner_.topology();
  }
  double core_busy_fraction(CoreId core) const override {
    ++calls_;
    return inner_.core_busy_fraction(core);
  }
  TimeUs elapsed_work_us(AppId app, int tid) const override {
    ++calls_;
    return inner_.elapsed_work_us(app, tid);
  }
  double energy_j() const override {
    ++calls_;
    return inner_.energy_j();
  }
  int num_apps() const override {
    ++calls_;
    return inner_.num_apps();
  }
  bool app_alive(AppId app) const override {
    ++calls_;
    return inner_.app_alive(app);
  }
  int thread_count(AppId app) const override {
    ++calls_;
    return inner_.thread_count(app);
  }
  std::vector<int> thread_group_sizes(AppId app) const override {
    ++calls_;
    return inner_.thread_group_sizes(app);
  }
  HeartbeatMonitor& heartbeats(AppId app) override {
    ++calls_;
    return inner_.heartbeats(app);
  }
  void set_dvfs_level(ClusterId cluster, int level) override {
    ++calls_;
    inner_.set_dvfs_level(cluster, level);
  }
  int dvfs_level(ClusterId cluster) const override {
    ++calls_;
    return inner_.dvfs_level(cluster);
  }
  void place(AppId app, int tid, CpuMask mask) override {
    ++calls_;
    inner_.place(app, tid, mask);
  }
  void place_app(AppId app, CpuMask mask) override {
    ++calls_;
    inner_.place_app(app, mask);
  }
  CoreId thread_core(AppId app, int tid) const override {
    ++calls_;
    return inner_.thread_core(app, tid);
  }
  void set_online_mask(CpuMask mask) override {
    ++calls_;
    inner_.set_online_mask(mask);
  }
  TimeSource& time() override { return inner_.time(); }
  void attach_manager(ManagerHook* manager) override {
    inner_.attach_manager(manager);
  }
  void run_until(TimeUs t) override { inner_.run_until(t); }
  const PowerModel& profiling_model() const override {
    return inner_.profiling_model();
  }
  bool audit_enabled() const override { return inner_.audit_enabled(); }
  double manager_cpu_utilization_pct() const override {
    return inner_.manager_cpu_utilization_pct();
  }
  SimEngine* sim_engine() override { return inner_.sim_engine(); }

 private:
  Backend& inner_;
  long long& calls_;
};

/// Wall clock of one HARS-E run driven through a SimBackend; with
/// `calls`, the backend is wrapped in the counting decorator and the
/// number of HAL calls is stored there.
double run_once(double duration_sec, long long* calls = nullptr) {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  DataParallelConfig cfg;
  cfg.threads = 8;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kStable, 4.0, 0.0, 0.0, 1};
  DataParallelApp app("bench", cfg);
  const AppId id = engine.add_app(&app);
  const PowerCoeffTable coeffs =
      profile_power(engine.machine(), engine.power_model());

  SimBackend sim_backend(engine);
  long long local_calls = 0;
  CountingBackend counting(sim_backend, local_calls);
  Backend& backend =
      calls != nullptr ? static_cast<Backend&>(counting) : sim_backend;

  const auto t0 = Clock::now();
  RuntimeManager manager(backend, id, PerfTarget::around(2.0), coeffs);
  engine.set_manager(&manager);
  engine.run_for(static_cast<TimeUs>(duration_sec * kUsPerSec));
  const double wall_ms = ms_since(t0);
  if (calls != nullptr) *calls = local_calls;
  return wall_ms;
}

/// The micro mix: the observe/actuate calls a manager tick leans on.
/// Templated on the static type, so the same code measures devirtualized
/// (SimBackend&) and vtable (Backend&) dispatch.
template <typename BackendRef>
double measure_mix_ns_per_call(BackendRef& backend, const Machine& m,
                               AppId id, int iters) {
  volatile double sink = 0.0;
  volatile int isink = 0;
  const ClusterId big = m.fastest_cluster();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    sink = sink + backend.heartbeats(id).rate();
    isink = isink + backend.dvfs_level(big);
    sink = sink + backend.core_busy_fraction(static_cast<CoreId>(i & 7));
    backend.set_dvfs_level(big, (i & 1) ? 2 : 3);
    isink = isink + backend.thread_count(id);
  }
  const double ns = ms_since(t0) * 1e6;
  (void)sink;
  (void)isink;
  return ns / (5.0 * iters);  // 5 HAL calls per iteration.
}

}  // namespace

int main(int argc, char** argv) {
  double duration_sec = 60.0;
  int reps = 3;
  double budget_pct = 2.0;
  std::string out_path = "BENCH_backend.json";
  flags::Parser cli("backend_bench");
  cli.flag("--duration SEC", &duration_sec,
           "simulated seconds per managed run (default 60)")
      .flag("--reps N", &reps,
            "timed repetitions; the minimum counts (default 3)")
      .flag("--budget PCT", &budget_pct,
            "HAL share of wall clock that fails the run (default 2)")
      .flag("--out FILE", &out_path,
            "perf record (default BENCH_backend.json)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }

  // ---- 1. Call census + run wall clock --------------------------------
  long long hal_calls = 0;
  run_once(duration_sec, &hal_calls);
  double hal_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    hal_ms = std::min(hal_ms, run_once(duration_sec));
  }
  std::printf("call census      %lld HAL calls over %.0f sim-seconds, "
              "run %.1f ms\n",
              hal_calls, duration_sec, hal_ms);

  // ---- 2. Dispatch micro ----------------------------------------------
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  DataParallelConfig cfg;
  cfg.threads = 8;
  DataParallelApp app("micro", cfg);
  const AppId id = engine.add_app(&app);
  SimBackend concrete(engine);
  Backend& virt = concrete;
  const int iters = 400000;
  // Warm both paths once, then min-of-3 each.
  double direct_ns = 1e300;
  double virtual_ns = 1e300;
  for (int r = 0; r < 3; ++r) {
    direct_ns = std::min(
        direct_ns,
        measure_mix_ns_per_call(concrete, engine.machine(), id, iters));
    virtual_ns = std::min(
        virtual_ns, measure_mix_ns_per_call(virt, engine.machine(), id, iters));
  }
  const double per_call_overhead_ns = std::max(0.0, virtual_ns - direct_ns);
  // The gated number: dispatch overhead across every HAL call the run
  // issues, as a share of the run's wall clock.
  const double overhead_pct =
      hal_ms > 0.0
          ? 100.0 * (static_cast<double>(hal_calls) * per_call_overhead_ns) /
                (hal_ms * 1e6)
          : 0.0;
  const bool within_budget = overhead_pct <= budget_pct;
  std::printf("dispatch micro   %.2f ns/call devirtualized, %.2f ns/call "
              "virtual (+%.2f ns)\n",
              direct_ns, virtual_ns, per_call_overhead_ns);
  std::printf("interface        %.4f%% of wall clock (budget %.1f%%): %s\n",
              overhead_pct, budget_pct, within_budget ? "ok" : "OVER BUDGET");

  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"backend_bench\",\n"
      << "  \"duration_sec\": " << format_number(duration_sec)
      << ",\n  \"reps\": " << reps
      << ",\n  \"hal_wall_ms\": " << format_number(hal_ms)
      << ",\n  \"hal_calls\": " << hal_calls
      << ",\n  \"direct_ns_per_call\": " << format_number(direct_ns)
      << ",\n  \"virtual_ns_per_call\": " << format_number(virtual_ns)
      << ",\n  \"per_call_overhead_ns\": "
      << format_number(per_call_overhead_ns)
      << ",\n  \"overhead_pct\": " << format_number(overhead_pct)
      << ",\n  \"budget_pct\": " << format_number(budget_pct)
      << ",\n  \"within_budget\": " << (within_budget ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return (within_budget && out.good()) ? 0 : 1;
}
