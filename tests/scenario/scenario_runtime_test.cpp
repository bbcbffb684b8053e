// Engine-level dynamics: remove_app thread reclamation, the
// kill-at-midpoint regression (a departed app must not leak into manager
// decisions), phase shifts and hotplug events.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "apps/parsec.hpp"
#include "exp/experiment.hpp"
#include "hmp/sim_engine.hpp"
#include "scenario/scenario.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

std::unique_ptr<Scheduler> gts() { return std::make_unique<GtsScheduler>(); }

TEST(SimEngineRemoveApp, ReclaimsThreadsAndKeepsOtherIdsStable) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()), gts());
  auto a = make_parsec_app(ParsecBenchmark::kSwaptions, 4, 1);
  auto b = make_parsec_app(ParsecBenchmark::kBodytrack, 8, 2);
  const AppId ia = engine.add_app(a.get());
  const AppId ib = engine.add_app(b.get());
  engine.run_for(50 * kUsPerMs);
  ASSERT_EQ(engine.threads().size(), 12u);

  engine.remove_app(ia);
  EXPECT_FALSE(engine.app_alive(ia));
  EXPECT_TRUE(engine.app_alive(ib));
  EXPECT_EQ(engine.threads().size(), 8u);
  for (const SimThread& t : engine.threads()) EXPECT_EQ(t.app, ib);

  // The survivor keeps running and its thread table stays addressable.
  const std::int64_t beats_before = b->heartbeats().count();
  engine.run_for(2 * kUsPerSec);
  EXPECT_GT(b->heartbeats().count(), beats_before);
  EXPECT_EQ(engine.thread_affinity(ib, 0), engine.machine().all_mask());

  // Double removal is an error; migrations survive as an aggregate.
  EXPECT_THROW(engine.remove_app(ia), std::out_of_range);
  EXPECT_GE(engine.total_migrations(), 0);
}

TEST(SimEngineRemoveApp, RemovedAppStopsConsumingCpu) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()), gts());
  auto a = make_parsec_app(ParsecBenchmark::kSwaptions, 8, 1);
  const AppId ia = engine.add_app(a.get());
  engine.run_for(100 * kUsPerMs);
  engine.remove_app(ia);
  const std::int64_t beats_at_kill = a->heartbeats().count();
  engine.run_for(300 * kUsPerMs);
  // No CPU shares reach a removed app: its heartbeat stream is frozen.
  EXPECT_EQ(a->heartbeats().count(), beats_at_kill);
}

/// Spawn-after-kill bookkeeping audit (ISSUE 5): a new app claims a fresh
/// slot while threads_ has been compacted by earlier removals, and later
/// removals shift the bases again. Interleaving kill -> spawn -> kill must
/// keep every alive app's (base, count) window exact — per-thread
/// affinities set through (app, local_tid) must read back through the
/// same coordinates and land on threads owned by that app.
TEST(SimEngineRemoveApp, SpawnAfterKillInterleavingKeepsIndexMapping) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()), gts());
  auto a = make_parsec_app(ParsecBenchmark::kSwaptions, 4, 1);
  auto b = make_parsec_app(ParsecBenchmark::kBodytrack, 8, 2);
  auto c = make_parsec_app(ParsecBenchmark::kFluidanimate, 2, 3);
  const AppId ia = engine.add_app(a.get());
  const AppId ib = engine.add_app(b.get());
  const AppId ic = engine.add_app(c.get());
  engine.run_for(20 * kUsPerMs);

  auto check_mapping = [&](std::initializer_list<std::pair<AppId, App*>> live) {
    // Every (app, tid) coordinate round-trips a distinct affinity...
    std::size_t expected_threads = 0;
    for (const auto& [id, app] : live) {
      ASSERT_TRUE(engine.app_alive(id));
      expected_threads += static_cast<std::size_t>(app->thread_count());
      for (int tid = 0; tid < app->thread_count(); ++tid) {
        const CpuMask probe =
            CpuMask::single((tid + id) % engine.machine().num_cores());
        engine.set_thread_affinity(id, tid, probe);
        EXPECT_EQ(engine.thread_affinity(id, tid).bits(), probe.bits())
            << "app " << id << " tid " << tid;
        engine.set_thread_affinity(id, tid, engine.machine().all_mask());
      }
    }
    // ...the table holds exactly the live apps' threads, each (app,
    // local_index) pair once, with globally unique thread ids.
    ASSERT_EQ(engine.threads().size(), expected_threads);
    std::set<std::pair<AppId, int>> seen;
    std::set<ThreadId> ids_seen;
    for (const SimThread& t : engine.threads()) {
      EXPECT_TRUE(engine.app_alive(t.app));
      EXPECT_TRUE(seen.emplace(t.app, t.local_index).second);
      EXPECT_TRUE(ids_seen.insert(t.id).second);
      EXPECT_EQ(t.app_ptr, &engine.app(t.app));
    }
  };

  // kill a -> spawn d (reuses the compacted tail of threads_).
  engine.remove_app(ia);
  auto d = make_parsec_app(ParsecBenchmark::kBlackscholes, 6, 4);
  const AppId id_d = engine.add_app(d.get());
  check_mapping({{ib, b.get()}, {ic, c.get()}, {id_d, d.get()}});

  // kill b (shifts c and d's bases down) -> spawn e -> kill d.
  engine.remove_app(ib);
  auto e = make_parsec_app(ParsecBenchmark::kSwaptions, 5, 5);
  const AppId id_e = engine.add_app(e.get());
  check_mapping({{ic, c.get()}, {id_d, d.get()}, {id_e, e.get()}});
  engine.remove_app(id_d);
  check_mapping({{ic, c.get()}, {id_e, e.get()}});

  // The survivors keep making progress through the reshuffled table.
  const std::int64_t c_beats = c->heartbeats().count();
  engine.run_for(2 * kUsPerSec);
  EXPECT_GT(c->heartbeats().count(), c_beats);
  EXPECT_GT(e->heartbeats().count(), 0);
  EXPECT_FALSE(engine.app_alive(ia));
  EXPECT_FALSE(engine.app_alive(ib));
  EXPECT_FALSE(engine.app_alive(id_d));
}

TEST(SimEngineTickHook, FiresAtEveryBoundaryWithStartTime) {
  SimEngine engine(PlatformSpec::from_machine(Machine::exynos5422()), gts());
  auto a = make_parsec_app(ParsecBenchmark::kSwaptions, 4, 1);
  engine.add_app(a.get());
  std::vector<TimeUs> boundaries;
  engine.set_tick_hook([&](TimeUs t) { boundaries.push_back(t); });
  engine.run_for(5 * kUsPerMs);
  ASSERT_EQ(boundaries.size(), 5u);
  EXPECT_EQ(boundaries.front(), 0);
  EXPECT_EQ(boundaries.back(), 4 * kUsPerMs);
}

TEST(AppPhaseScale, ScalesEffectiveSpeed) {
  auto app = make_parsec_app(ParsecBenchmark::kSwaptions, 4, 1);
  EXPECT_DOUBLE_EQ(app->phase_scale(), 1.0);
  app->set_phase_scale(2.0);
  EXPECT_DOUBLE_EQ(app->phase_scale(), 2.0);
  app->set_phase_scale(0.0);  // Ignored: scale must stay positive.
  EXPECT_DOUBLE_EQ(app->phase_scale(), 2.0);
}

/// Kill-at-midpoint regression: under MP-HARS, the departed app's cores
/// must return to the pool and the survivor must keep adapting — and the
/// departed app's span must end at the kill.
TEST(ScenarioKill, MidpointDepartureFreesResources) {
  const TimeUs kill_at = 8 * kUsPerSec;
  const Scenario scenario =
      ScenarioBuilder("kill-midpoint")
          .spawn(0, "victim", ParsecBenchmark::kSwaptions)
          .spawn(0, "survivor", ParsecBenchmark::kBodytrack)
          .kill(kill_at, "victim")
          .build();
  const ExperimentResult r = ExperimentBuilder()
                                 .scenario(scenario)
                                 .variant("MP-HARS-E")
                                 .duration(16 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 2u);
  const AppRunResult& victim = r.apps[0];
  const AppRunResult& survivor = r.apps[1];
  EXPECT_EQ(victim.label, "victim");
  EXPECT_EQ(victim.depart_time_us, kill_at);
  EXPECT_EQ(survivor.depart_time_us, -1);
  // The victim beat before departing, and not after: its history ends
  // inside its span.
  EXPECT_GT(victim.metrics.heartbeats, 0);
  // The survivor outlived it and kept beating in the second half.
  EXPECT_GT(survivor.metrics.heartbeats, victim.metrics.heartbeats / 4);
  EXPECT_GT(survivor.metrics.norm_perf, 0.3);
}

TEST(ScenarioKill, HistoryEndsAtDeparture) {
  const TimeUs kill_at = 6 * kUsPerSec;
  const Scenario scenario =
      ScenarioBuilder("kill-history")
          .spawn(0, "victim", ParsecBenchmark::kSwaptions)
          .spawn(0, "other", ParsecBenchmark::kSwaptions)
          .kill(kill_at, "victim")
          .build();
  // Sample the engine mid-run to grab the victim's monitor after death.
  std::int64_t beats_at_end = -1;
  std::int64_t beats_at_kill = -1;
  const ExperimentResult r =
      ExperimentBuilder()
          .scenario(scenario)
          .variant("Baseline")
          .duration(12 * kUsPerSec)
          .sample_every(kUsPerSec,
                        [&](const RunView& view) {
                          if (view.now == kill_at && beats_at_kill < 0) {
                            // First sample at/after the kill: one app left.
                            beats_at_kill = 0;
                          }
                          beats_at_end =
                              static_cast<std::int64_t>(view.apps.size());
                        })
          .build()
          .run();
  EXPECT_EQ(beats_at_end, 1);  // Only the survivor is live at run end.
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_EQ(r.apps[0].depart_time_us, kill_at);
}

/// Single-app HARS whose managed app departs: the manager goes silent
/// instead of reading the dead slot (would crash / leak decisions).
TEST(ScenarioKill, SingleAppManagerSurvivesItsAppDeparting) {
  const Scenario scenario =
      ScenarioBuilder("kill-managed")
          .spawn(0, "managed", ParsecBenchmark::kSwaptions)
          .spawn(2 * kUsPerSec, "late", ParsecBenchmark::kBodytrack)
          .kill(6 * kUsPerSec, "managed")
          .build();
  const ExperimentResult r = ExperimentBuilder()
                                 .scenario(scenario)
                                 .variant("HARS-E")
                                 .duration(12 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_EQ(r.apps[0].depart_time_us, 6 * kUsPerSec);
  EXPECT_GT(r.apps[1].metrics.heartbeats, 0);
}

TEST(ScenarioEvents, PhaseShiftSlowsTheApp) {
  const Scenario scenario = ScenarioBuilder("phase")
                                .spawn(0, "a0", ParsecBenchmark::kSwaptions)
                                .set_phase(5 * kUsPerSec, "a0", 4.0)
                                .build();
  std::vector<double> rates;
  (void)ExperimentBuilder()
      .scenario(scenario)
      .variant("Baseline")
      .duration(10 * kUsPerSec)
      .sample_every(kUsPerSec,
                    [&](const RunView& view) {
                      rates.push_back(view.apps[0]->heartbeats().rate());
                    })
      .build()
      .run();
  ASSERT_EQ(rates.size(), 10u);
  // 4x heavier work => the windowed rate collapses well below half.
  EXPECT_GT(rates[4], 0.0);
  EXPECT_LT(rates[9], 0.5 * rates[4]);
}

TEST(ScenarioEvents, HotplugTakesAndReturnsCores) {
  const CpuMask big = CpuMask::range(4, 4);
  const Scenario scenario = ScenarioBuilder("failure")
                                .spawn(0, "a0", ParsecBenchmark::kSwaptions)
                                .offline_cores(2 * kUsPerSec, big)
                                .online_cores(4 * kUsPerSec, big)
                                .build();
  std::vector<int> online;
  (void)ExperimentBuilder()
      .scenario(scenario)
      .variant("Baseline")
      .duration(6 * kUsPerSec)
      .sample_every(kUsPerSec,
                    [&](const RunView& view) {
                      online.push_back(
                          view.engine.machine().online_mask().count());
                    })
      .build()
      .run();
  ASSERT_EQ(online.size(), 6u);
  EXPECT_EQ(online[0], 8);  // Before the failure.
  EXPECT_EQ(online[2], 4);  // While the fast cluster is down.
  EXPECT_EQ(online[5], 8);  // After recovery.
}

TEST(ScenarioEvents, SetTargetMovesTheWindow) {
  const Scenario scenario = ScenarioBuilder("retarget")
                                .spawn(0, "a0", ParsecBenchmark::kSwaptions)
                                .target(PerfTarget{1.0, 1.2})
                                .set_target(4 * kUsPerSec, "a0",
                                            PerfTarget{3.0, 3.6})
                                .build();
  const ExperimentResult r = ExperimentBuilder()
                                 .scenario(scenario)
                                 .variant("HARS-E")
                                 .duration(8 * kUsPerSec)
                                 .build()
                                 .run();
  ASSERT_EQ(r.apps.size(), 1u);
  // The result reports the *final* target.
  EXPECT_DOUBLE_EQ(r.apps[0].target.min, 3.0);
  EXPECT_DOUBLE_EQ(r.apps[0].target.max, 3.6);
}

TEST(ScenarioConfig, BuilderRejectsInvalidCombinations) {
  const Scenario ok = ScenarioBuilder("ok")
                          .spawn(0, "a0", ParsecBenchmark::kSwaptions)
                          .build();
  // scenario() + app() are exclusive.
  EXPECT_THROW(ExperimentBuilder()
                   .app(ParsecBenchmark::kSwaptions)
                   .scenario(ok)
                   .build(),
               ExperimentConfigError);
  // Steady-state protocol has no meaning with arrivals.
  EXPECT_THROW(ExperimentBuilder()
                   .scenario(ok)
                   .protocol(RunProtocol::kSteadyState)
                   .build(),
               ExperimentConfigError);
  // Unknown preset names list the catalogue.
  EXPECT_THROW(ExperimentBuilder().scenario(std::string_view("nope")),
               ExperimentConfigError);
}

}  // namespace
}  // namespace hars
