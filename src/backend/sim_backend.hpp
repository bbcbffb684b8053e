// SimBackend: the Backend over the discrete-time simulator.
//
// A stateless forwarder — every call maps 1:1 onto the SimEngine method
// the managers used to call directly, so a manager driven through
// SimBackend produces bit-identical simulations to one holding
// SimEngine& (the golden/replay/differential suites gate on this). The
// engine stays caller-owned: SimBackend is cheap to construct on the
// stack wherever a Backend view of an engine is needed. Not final: the
// differential oracle's ReferenceSimBackend (oracle/reference_run.hpp)
// overrides run_until to drive the reference tick.
#pragma once

#include "backend/backend.hpp"
#include "hmp/sim_engine.hpp"

namespace hars {

/// TimeSource over the engine clock. Simulated time is driven by
/// SimEngine::run_until, so sleep_until is a no-op.
class SimTimeSource final : public TimeSource {
 public:
  explicit SimTimeSource(const SimEngine& engine) : engine_(engine) {}
  TimeUs now_us() override { return engine_.now(); }
  void sleep_until(TimeUs) override {}

 private:
  const SimEngine& engine_;
};

class SimBackend : public Backend {
 public:
  explicit SimBackend(SimEngine& engine)
      : engine_(engine), time_(engine) {}

  const char* name() const override { return "sim"; }
  BackendCaps caps() const override {
    BackendCaps caps;
    caps.dvfs = true;
    caps.placement = true;
    caps.hotplug = true;
    caps.energy = true;
    caps.core_stats = true;
    caps.simulated = true;
    return caps;
  }

  const Machine& topology() const override { return engine_.machine(); }

  double core_busy_fraction(CoreId core) const override {
    return engine_.core_busy_fraction(core);
  }
  TimeUs elapsed_work_us(AppId app, int local_tid) const override {
    return engine_.thread_cpu_time_us(app, local_tid);
  }
  double energy_j() const override;

  int num_apps() const override { return engine_.num_apps(); }
  bool app_alive(AppId app) const override { return engine_.app_alive(app); }
  int thread_count(AppId app) const override {
    return engine_.app(app).thread_count();
  }
  std::vector<int> thread_group_sizes(AppId app) const override {
    return engine_.app(app).thread_group_sizes();
  }
  HeartbeatMonitor& heartbeats(AppId app) override {
    return engine_.app(app).heartbeats();
  }

  void set_dvfs_level(ClusterId cluster, int level) override;
  void place(AppId app, int local_tid, CpuMask mask) override;
  void place_app(AppId app, CpuMask mask) override;
  CoreId thread_core(AppId app, int local_tid) const override {
    return engine_.thread_core(app, local_tid);
  }
  void set_online_mask(CpuMask mask) override;

  TimeSource& time() override { return time_; }
  void attach_manager(ManagerHook* manager) override {
    engine_.set_manager(manager);
  }
  void run_until(TimeUs t) override { engine_.run_until(t); }

  const PowerModel& profiling_model() const override {
    return engine_.power_model();
  }
  bool audit_enabled() const override { return engine_.audit_enabled(); }
  double manager_cpu_utilization_pct() const override {
    return engine_.manager_cpu_utilization_pct();
  }

  SimEngine* sim_engine() override { return &engine_; }

 private:
  SimEngine& engine_;
  SimTimeSource time_;
};

}  // namespace hars
