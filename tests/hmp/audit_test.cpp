// HARS_AUDIT invariant audits: audited runs are bit-identical to
// unaudited runs, survive spawn/kill/hotplug churn, and the diagnostic
// helpers (SystemState::check_invariants, AuditError) behave as
// documented.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "core/system_state.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "oracle/reference_gts.hpp"
#include "oracle/reference_run.hpp"
#include "sched/gts.hpp"
#include "util/audit.hpp"

namespace hars {
namespace {

DataParallelConfig app_config(int threads) {
  DataParallelConfig cfg;
  cfg.threads = threads;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kStable, 2.0, 0.0, 0.0, 1};
  return cfg;
}

TEST(Audit, DefaultEnabledReflectsBuildMacro) {
#if defined(HARS_AUDIT)
  EXPECT_TRUE(audit::default_enabled());
#else
  EXPECT_FALSE(audit::default_enabled());
#endif
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  EXPECT_EQ(engine.audit_enabled(), audit::default_enabled());
  engine.set_audit(true);
  EXPECT_TRUE(engine.audit_enabled());
  engine.set_audit(false);
  EXPECT_FALSE(engine.audit_enabled());
}

TEST(Audit, AuditErrorIsALogicError) {
  static_assert(std::is_base_of_v<std::logic_error, AuditError>);
  try {
    throw AuditError("busy-sum mismatch");
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("busy-sum"), std::string::npos);
  }
}

TEST(Audit, AuditedManagedRunIsBitIdenticalToUnaudited) {
  // The audits are read-only: an audited engine must advance the
  // simulation exactly as an unaudited one does, down to every energy
  // bit and heartbeat.
  const auto run = [](bool audited) {
    SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                     std::make_unique<GtsScheduler>());
    engine.set_audit(audited);
    auto app = std::make_unique<DataParallelApp>("twin", app_config(8));
    const AppId id = engine.add_app(app.get());
    SimBackend backend(engine);
    RuntimeManager manager(
        backend, id, PerfTarget{4.0, 6.0},
        profile_power(engine.machine(), engine.power_model()),
        config_for_variant(HarsVariant::kHarsE));
    backend.attach_manager(&manager);
    engine.run_for(2 * kUsPerSec);
    struct Out {
      double energy;
      std::int64_t beats;
      std::int64_t adaptations;
      std::int64_t migrations;
    };
    return Out{engine.sensor().total_energy_j(), app->heartbeats().count(),
               manager.adaptations(), engine.total_migrations()};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.energy, on.energy);  // Bit-exact, not NEAR.
  EXPECT_EQ(off.beats, on.beats);
  EXPECT_EQ(off.adaptations, on.adaptations);
  EXPECT_EQ(off.migrations, on.migrations);
}

TEST(Audit, SurvivesSpawnKillAndHotplugChurn) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>());
  engine.set_audit(true);
  DataParallelApp first("first", app_config(6));
  const AppId first_id = engine.add_app(&first);
  EXPECT_NO_THROW(engine.run_for(300 * kUsPerMs));

  // Mid-run arrival, departure and hotplug, each followed by audited
  // ticks and an explicit boundary audit.
  DataParallelApp second("second", app_config(4));
  engine.add_app(&second);
  EXPECT_NO_THROW(engine.audit_now());
  EXPECT_NO_THROW(engine.run_for(300 * kUsPerMs));

  engine.remove_app(first_id);
  EXPECT_NO_THROW(engine.audit_now());
  EXPECT_NO_THROW(engine.run_for(300 * kUsPerMs));

  Machine& m = engine.machine();
  // Take the big cluster offline, then bring it back.
  m.set_online_mask(m.online_mask() & ~m.fastest_mask());
  EXPECT_NO_THROW(engine.run_for(300 * kUsPerMs));
  m.set_online_mask(m.all_mask());
  EXPECT_NO_THROW(engine.run_for(300 * kUsPerMs));
  EXPECT_GT(second.heartbeats().count(), 0);
}

TEST(Audit, ReferenceTickPathIsAuditedToo) {
  SimConfig config;
  config.audit = true;
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<ReferenceGtsScheduler>(), config);
  DataParallelApp app("reference", app_config(8));
  engine.add_app(&app);
  EXPECT_NO_THROW(run_reference_until(engine, 300 * kUsPerMs));
}

TEST(Audit, CheckInvariantsAcceptsEveryValidState) {
  const StateSpace space =
      StateSpace::from_machine(Machine::exynos5422());
  EXPECT_EQ(space.max_state().check_invariants(space), "");
  const SystemState minimal{0, 1, 0, 0};
  EXPECT_TRUE(space.valid(minimal));
  EXPECT_EQ(minimal.check_invariants(space), "");
}

TEST(Audit, CheckInvariantsDiagnosesEachViolatedBound) {
  const StateSpace space =
      StateSpace::from_machine(Machine::exynos5422());
  // Each corrupt state must produce a non-empty diagnosis and agree with
  // StateSpace::valid (check_invariants is its explain-why form).
  const SystemState cases[] = {
      {-1, 2, 0, 0},                            // Negative big cores.
      {space.max_big_cores + 1, 2, 0, 0},       // Too many big cores.
      {2, -1, 0, 0},                            // Negative little cores.
      {2, space.max_little_cores + 1, 0, 0},    // Too many little cores.
      {2, 2, space.num_big_freqs, 0},           // Big freq out of range.
      {2, 2, 0, -1},                            // Little freq negative.
      {0, 0, 0, 0},                             // No cores at all.
  };
  for (const SystemState& s : cases) {
    EXPECT_FALSE(space.valid(s)) << s.to_string();
    const std::string why = s.check_invariants(space);
    EXPECT_FALSE(why.empty()) << s.to_string();
    // The diagnosis carries the offending state for log forensics.
    EXPECT_NE(why.find(s.to_string()), std::string::npos) << why;
  }
}

}  // namespace
}  // namespace hars
