// The poll clock the three runtime managers share (PollingManager) and the
// overhead model it charges: the costs on_tick reports are the ones the
// engine bills to the manager core and perfbench decodes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "apps/data_parallel_app.hpp"
#include "backend/sim_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "core/runtime_manager.hpp"
#include "hmp/platform_spec.hpp"
#include "mphars/cons_i.hpp"
#include "mphars/mphars_manager.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

constexpr TimeUs kPeriod = PollingManager::kPollPeriodUs;
constexpr TimeUs kPoll = PollingManager::kPollCostUs;

DataParallelConfig app_config() {
  DataParallelConfig cfg;
  cfg.threads = 8;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kStable, 4.0, 0.0, 0.0, 1};
  return cfg;
}

/// One app on a SimBackend and the variant's manager for it, built
/// directly and not attached: the test calls on_tick itself.
struct Rig {
  SimEngine engine{PlatformSpec::from_machine(Machine::exynos5422()),
                   std::make_unique<GtsScheduler>()};
  SimBackend backend{engine};
  DataParallelApp app{"t", app_config()};
  AppId id = engine.add_app(&app);
  PowerCoeffTable coeffs =
      profile_power(engine.machine(), engine.power_model());
  std::unique_ptr<PollingManager> manager;
  std::function<std::size_t()> trace_size;

  Rig(const std::string& variant, PerfTarget target) {
    if (variant == "HARS-E") {
      auto m = std::make_unique<RuntimeManager>(
          backend, id, target, coeffs, config_for_variant(HarsVariant::kHarsE));
      trace_size = [p = m.get()] { return p->trace().size(); };
      manager = std::move(m);
    } else if (variant == "MP-HARS-E") {
      auto m = std::make_unique<MpHarsManager>(backend, coeffs);
      m->register_app(id, MpHarsAppConfig{target});
      trace_size = [p = m.get(), app = id] { return p->trace(app).size(); };
      manager = std::move(m);
    } else {
      auto m = std::make_unique<ConsIManager>(backend);
      m->register_app(id, ConsIAppConfig{target});
      trace_size = [p = m.get(), app = id] { return p->trace(app).size(); };
      manager = std::move(m);
    }
  }

  /// Runs the engine a tick at a time until the app's latest heartbeat
  /// index is a fresh multiple of 5 (the adaptation period) past its
  /// first full window.
  void run_to_adaptation_beat() {
    const std::int64_t start = app.heartbeats().last_index();
    for (;;) {
      engine.run_until(engine.now() + 1 * kUsPerMs);
      const std::int64_t idx = app.heartbeats().last_index();
      if (idx != start && idx >= 10 && idx % 5 == 0) return;
    }
  }
};

class PollClock : public ::testing::TestWithParam<std::string> {};

TEST_P(PollClock, DuePollsMoveTheClockAndChargeThePollCost) {
  Rig rig(GetParam(), PerfTarget::around(1.0));
  PollingManager& m = *rig.manager;
  EXPECT_EQ(m.next_due(), 0);

  // No heartbeat yet: a due poll is an idle poll.
  EXPECT_EQ(m.on_tick(0), kPoll);
  EXPECT_EQ(m.next_due(), kPeriod);
  TimeUs period = 0;
  TimeUs cost = 0;
  EXPECT_TRUE(m.idle_poll(period, cost));
  EXPECT_EQ(period, kPeriod);
  EXPECT_EQ(cost, kPoll);

  // The clock moves from the call's time, not from the grid.
  EXPECT_EQ(m.on_tick(kPeriod + 700), kPoll);
  EXPECT_EQ(m.next_due(), 2 * kPeriod + 700);

  // A call before next_due() returns 0, changes nothing and leaves a new
  // heartbeat to the next due poll.
  rig.run_to_adaptation_beat();
  const TimeUs due = rig.engine.now() + 3 * kPeriod;
  m.skip_idle_polls(due);
  EXPECT_EQ(m.next_due(), due);
  const std::size_t traced = rig.trace_size();
  const Machine& machine = rig.engine.machine();
  const std::uint64_t epoch = machine.dvfs_epoch();
  EXPECT_EQ(m.on_tick(due - 1), 0);
  EXPECT_EQ(m.next_due(), due);
  EXPECT_EQ(rig.trace_size(), traced);
  EXPECT_EQ(machine.dvfs_epoch(), epoch);
  EXPECT_GE(m.on_tick(due), kPoll);
  EXPECT_EQ(m.next_due(), due + kPeriod);
  EXPECT_EQ(rig.trace_size(), traced + 1);

  // Its heartbeat seen, the next due poll is idle again.
  EXPECT_EQ(m.on_tick(due + kPeriod), kPoll);
  EXPECT_EQ(m.next_due(), due + 2 * kPeriod);
}

TEST_P(PollClock, SearchCostDecomposesIntoTheOverheadModel) {
  // Far above what the machine delivers: the first adaptation beat is
  // out of the window, so the manager decides (and cannot move up).
  const PerfTarget target = PerfTarget::around(1000.0);
  Rig rig(GetParam(), target);
  PollingManager& m = *rig.manager;
  rig.run_to_adaptation_beat();
  const double rate = rig.app.heartbeats().rate();
  ASSERT_GT(rate, 0.0);
  const TimeUs cost = m.on_tick(rig.engine.now());
  EXPECT_EQ(m.next_due(), rig.engine.now() + kPeriod);

  if (GetParam() == "CONS-I") {
    EXPECT_EQ(cost, kPoll + ConsIManager::kStepCostUs);
    return;
  }
  // HARS-E and MP-HARS-E (alone, so it owns every core and both clusters'
  // frequencies) search the same neighbourhood of the maximum state.
  const Machine& machine = rig.engine.machine();
  const StateSpace space = StateSpace::from_machine(machine);
  const SearchResult search = get_next_sys_state_reference(
      rate, space.max_state(), target,
      params_for_policy(SearchPolicy::kExhaustive, /*overperforming=*/false),
      space, PerfEstimator(machine, 1.5), PowerEstimator(rig.coeffs),
      rig.app.thread_count());
  ASSERT_GT(search.candidates, 0);
  EXPECT_EQ(cost,
            kPoll + kAdaptFixedCostUs + kCostPerCandidateUs * search.candidates);
  // perfbench's decoding of the same figure.
  EXPECT_EQ((cost - RuntimeManagerConfig::poll_cost_us -
             RuntimeManagerConfig::adapt_fixed_cost_us) /
                RuntimeManagerConfig::cost_per_candidate_us,
            search.candidates);
}

INSTANTIATE_TEST_SUITE_P(Managers, PollClock,
                         ::testing::Values("HARS-E", "MP-HARS-E", "CONS-I"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hars
