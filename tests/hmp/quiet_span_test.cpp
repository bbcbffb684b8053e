// Quiet-span differential: every case runs twice, once on the reference
// tick and GTS (oracle/reference_run: run_reference_until or
// run_reference, which never take a span) and once on the default path,
// and the two must agree bit for bit — the result fingerprint, and the
// engine state (time, per-core busy time, per-cluster energy, every
// thread's cpu time, load, core and migrations, manager overhead and
// on_tick calls) at every manager call and at the end, and any scenario
// capture byte for byte. Hashing the state at every call keeps spans from
// charging idle polls, so each experiment-level case runs a second time
// under a wrapper that forwards the manager's poll schedule: its spans
// charge idle polls inline, and the state is compared at every poll that
// finds a new heartbeat.
// Each default run must also have taken quiet spans, or the comparison
// would prove nothing (a capture sampled every tick is the one case that
// must take none).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "apps/parsec.hpp"
#include "apps/pipeline_app.hpp"
#include "backend/sim_backend.hpp"
#include "exp/calibration.hpp"
#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/platform_spec.hpp"
#include "hmp/sim_engine.hpp"
#include "oracle/fuzz_harness.hpp"
#include "oracle/reference_gts.hpp"
#include "oracle/reference_run.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/trace_sink.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

/// Folds raw bytes into an FNV-1a hash.
class Fnv {
 public:
  template <class T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything a tick changes in the engine, exactly (doubles as hex
/// floats), so a mismatch shows where the paths diverged.
std::string engine_state(const SimEngine& engine) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof buf, "now=%lld overhead=%lld\n",
                static_cast<long long>(engine.now()),
                static_cast<long long>(engine.manager_overhead_us()));
  out += buf;
  for (CoreId c = 0; c < engine.machine().num_cores(); ++c) {
    std::snprintf(buf, sizeof buf, "core%d busy=%a\n", c,
                  engine.core_busy_fraction(c));
    out += buf;
  }
  for (ClusterId cl = 0; cl < engine.machine().num_clusters(); ++cl) {
    std::snprintf(buf, sizeof buf, "cluster%d energy=%a\n", cl,
                  engine.sensor().cluster_energy_j(cl));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "energy=%a samples=%zu\n",
                engine.sensor().total_energy_j(),
                engine.sensor().samples().size());
  out += buf;
  for (const SimThread& t : engine.threads()) {
    std::snprintf(buf, sizeof buf,
                  "thread%lld cpu=%lld load=%a core=%d migrations=%lld\n",
                  static_cast<long long>(t.id),
                  static_cast<long long>(t.cpu_time_us), t.load.value(),
                  t.core, static_cast<long long>(t.migrations));
    out += buf;
  }
  return out;
}

/// Hashes the engine state at one manager call.
std::uint64_t state_hash(const SimEngine& engine) {
  Fnv h;
  h.add(engine.now());
  h.add(engine.manager_overhead_us());
  for (CoreId c = 0; c < engine.machine().num_cores(); ++c) {
    h.add(engine.core_busy_fraction(c));
  }
  for (ClusterId cl = 0; cl < engine.machine().num_clusters(); ++cl) {
    h.add(engine.sensor().cluster_energy_j(cl));
  }
  for (const SimThread& t : engine.threads()) {
    h.add(t.cpu_time_us);
    h.add(t.load.value());
    h.add(t.core);
    h.add(t.migrations);
  }
  return h.value();
}

// --- Engine-level cases -----------------------------------------------

/// A manager whose per-tick behaviour is a function of the engine and
/// time; it counts its calls and folds the engine state at each into a
/// running hash.
class ScriptedManager final : public ManagerHook {
 public:
  using Script = std::function<TimeUs(SimEngine&, TimeUs)>;
  ScriptedManager(SimEngine& engine, Script script)
      : engine_(engine), script_(std::move(script)) {}

  TimeUs on_tick(TimeUs now) override {
    ++calls_;
    trail_.add(state_hash(engine_));
    return script_ ? script_(engine_, now) : 0;
  }

  std::int64_t calls() const { return calls_; }
  std::uint64_t trail() const { return trail_.value(); }

 private:
  SimEngine& engine_;
  Script script_;
  std::int64_t calls_ = 0;
  Fnv trail_;
};

DataParallelConfig app_config(int threads, double work, std::uint64_t seed,
                              double imbalance = 0.1) {
  DataParallelConfig cfg;
  cfg.threads = threads;
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.workload = {WorkloadShape::kNoisy, work, 0.1, 0.0, 100};
  cfg.imbalance = imbalance;
  cfg.seed = seed;
  return cfg;
}

/// A ferret-shaped pipeline: light serial endpoints around two parallel
/// compute stages, with per-item work jitter (an RNG draw per hand-off).
PipelineConfig pipeline_config(std::uint64_t seed, int max_in_flight = 32,
                               std::int64_t max_items = -1) {
  PipelineConfig cfg;
  cfg.stages = {{1, 0.20}, {1, 0.60}, {2, 1.60}, {2, 1.60}, {1, 0.60}, {1, 0.20}};
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.max_in_flight = max_in_flight;
  cfg.max_items = max_items;
  cfg.work_noise = 0.05;
  cfg.seed = seed;
  return cfg;
}

using AppPool = std::vector<std::unique_ptr<App>>;

/// One engine run: apps, a scripted manager and a slice schedule.
struct EngineCase {
  std::string platform = "exynos5422";
  std::vector<DataParallelConfig> apps;
  std::vector<PipelineConfig> pipelines;  ///< Added after `apps`.
  std::vector<ParsecBenchmark> parsec;    ///< Added after `pipelines`.
  ScriptedManager::Script script;
  std::vector<TimeUs> slices;  ///< run_for lengths, in order.
  /// Runs after slice `i` (i = 0, 1, ...): may remove_app, or add_app an
  /// app it appends to `pool`, which keeps every app alive to the end.
  std::function<void(SimEngine& engine, AppPool& pool, std::size_t i)>
      between_slices;
};

struct EngineRun {
  std::string state;                    ///< Final engine state.
  std::vector<std::string> slice_states;///< State after every slice.
  std::vector<std::int64_t> heartbeats; ///< Per app.
  std::uint64_t trail = 0;              ///< Hash of states at on_tick.
  std::int64_t calls = 0;
  std::int64_t quiet_ticks = 0;
  std::int64_t ticks = 0;
  std::int64_t migrations = 0;
  /// Ticks step() ran: each retire a span does not take costs two.
  std::int64_t stepped() const { return ticks - quiet_ticks; }
};

EngineRun run_engine(const EngineCase& c, bool reference) {
  const PlatformSpec* platform = PlatformRegistry::instance().find(c.platform);
  EXPECT_NE(platform, nullptr) << c.platform;
  std::unique_ptr<Scheduler> scheduler;
  if (reference) {
    scheduler = std::make_unique<ReferenceGtsScheduler>();
  } else {
    scheduler = std::make_unique<GtsScheduler>();
  }
  SimEngine engine(*platform, std::move(scheduler));
  AppPool apps;
  for (const DataParallelConfig& cfg : c.apps) {
    apps.push_back(std::make_unique<DataParallelApp>(
        "app" + std::to_string(apps.size()), cfg));
  }
  for (const PipelineConfig& cfg : c.pipelines) {
    apps.push_back(std::make_unique<PipelineApp>(
        "pipe" + std::to_string(apps.size()), cfg));
  }
  for (ParsecBenchmark bench : c.parsec) {
    apps.push_back(make_parsec_app(bench, 8, apps.size() + 1));
  }
  for (const auto& app : apps) engine.add_app(app.get());
  ScriptedManager manager(engine, c.script);
  engine.set_manager(&manager);
  EngineRun run;
  for (std::size_t i = 0; i < c.slices.size(); ++i) {
    if (reference) {
      run_reference_until(engine, engine.now() + c.slices[i]);
    } else {
      engine.run_for(c.slices[i]);
    }
    run.slice_states.push_back(engine_state(engine));
    if (c.between_slices) c.between_slices(engine, apps, i);
  }
  run.state = engine_state(engine);
  for (const auto& app : apps) run.heartbeats.push_back(app->heartbeats().count());
  run.trail = manager.trail();
  run.calls = manager.calls();
  run.quiet_ticks = engine.quiet_ticks();
  run.ticks = engine.now() / engine.tick_us();
  run.migrations = engine.total_migrations();
  return run;
}

/// Runs `c` on both paths; they must agree bit for bit. Returns the
/// default path's run.
EngineRun expect_identical(const EngineCase& c) {
  const EngineRun ref = run_engine(c, /*reference=*/true);
  const EngineRun fast = run_engine(c, /*reference=*/false);
  EXPECT_EQ(ref.quiet_ticks, 0) << "the reference path took a span";
  EXPECT_GT(fast.quiet_ticks, 0) << "the default path took no span";
  EXPECT_EQ(ref.calls, fast.calls);
  EXPECT_EQ(ref.trail, fast.trail) << "state differs at some manager call";
  EXPECT_EQ(ref.heartbeats, fast.heartbeats);
  EXPECT_EQ(ref.slice_states.size(), fast.slice_states.size());
  for (std::size_t i = 0;
       i < std::min(ref.slice_states.size(), fast.slice_states.size()); ++i) {
    EXPECT_EQ(ref.slice_states[i], fast.slice_states[i]) << "after slice " << i;
  }
  EXPECT_EQ(ref.state, fast.state);
  EXPECT_EQ(ref.migrations, fast.migrations);
  return fast;
}

/// Total heartbeats of a run's apps.
std::int64_t total_beats(const EngineRun& run) {
  std::int64_t beats = 0;
  for (std::int64_t b : run.heartbeats) beats += b;
  return beats;
}

TEST(QuietSpan, SingleAppMatchesReference) {
  EngineCase c;
  c.apps = {app_config(8, 4.0, 1)};
  c.slices = {20 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, ThreadFinishingMidSpanEndsTheSpan) {
  // Two apps with different iteration lengths: threads of the short app
  // reach their barrier while the long app is mid-iteration, and the
  // long app stops after a few iterations while the other keeps going.
  EngineCase c;
  DataParallelConfig longer = app_config(4, 6.0, 2, 0.3);
  longer.max_iterations = 5;
  c.apps = {app_config(4, 1.5, 3, 0.3), longer};
  c.slices = {15 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, ManagerCostOfSeveralTicksStarvesTheManagerCore) {
  // 2.5 ticks of overhead every 40 ticks: cpu0 has zero capacity for two
  // ticks, then half a tick, with a thread pinned there.
  EngineCase c;
  c.apps = {app_config(4, 3.0, 4)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    if (now == engine.tick_us()) {
      engine.set_thread_affinity(0, 0, CpuMask::single(0));
    }
    return now % (40 * engine.tick_us()) == 0 ? 2500 : 0;
  };
  c.slices = {10 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, SmallManagerCostEveryFewTicks) {
  // The HARS poll pattern: a small charge every fifth tick alternates the
  // full and charged capacity variants.
  EngineCase c;
  c.apps = {app_config(8, 4.0, 5)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    return now % (5 * engine.tick_us()) == 0 ? 60 : 0;
  };
  c.slices = {10 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, ManagerRetunesHotplugsAndPinsMidSpan) {
  EngineCase c;
  c.apps = {app_config(4, 3.0, 6), app_config(2, 1.0, 7)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    const std::int64_t tick = now / engine.tick_us();
    Machine& m = engine.machine();
    if (tick % 97 == 0) {
      const ClusterId big = m.fastest_cluster();
      m.set_freq_level(big, static_cast<int>((tick / 97) % m.num_freq_levels(big)));
    }
    if (tick % 151 == 0) {
      // Toggle the last core offline and back.
      const CpuMask last = CpuMask::single(m.num_cores() - 1);
      m.set_online_mask(m.online_mask().test(m.num_cores() - 1)
                            ? m.online_mask() & ~last
                            : m.online_mask() | last);
    }
    if (tick % 211 == 0) {
      const int shift = static_cast<int>((tick / 211) % 2);
      engine.set_app_affinity(1, shift == 0 ? m.cluster_mask(m.fastest_cluster())
                                            : m.all_mask());
    }
    return 0;
  };
  c.slices = {12 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, RunForSlicesEndInsideSpans) {
  EngineCase c;
  c.apps = {app_config(8, 4.0, 8)};
  for (TimeUs slice : {7, 1, 13, 250, 3, 1000, 37, 2, 4096}) {
    c.slices.push_back(slice * kUsPerMs);
  }
  expect_identical(c);
}

TEST(QuietSpan, SecondPlatformMatchesReference) {
  EngineCase c;
  c.platform = "sd855";
  c.apps = {app_config(8, 5.0, 9), app_config(4, 2.0, 10)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    return now % (5 * engine.tick_us()) == 0 ? 60 : 0;
  };
  c.slices = {10 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, PipelineMatchesReference) {
  EngineCase c;
  c.pipelines = {pipeline_config(12)};
  c.slices = {20 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, PipelineWithSpentInputMatchesReference) {
  // A small pipeline that admits its whole input before it fills up:
  // begin_tick is idle because the input is spent, not because the
  // pipeline is full, and the app finishes mid-run.
  EngineCase c;
  c.pipelines = {pipeline_config(13, 64, 40)};
  c.slices = {20 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, PipelineUnderStarvingManagerCharges) {
  // Workers pinned to a manager core that loses two and a half ticks of
  // capacity every 40: a worker left idle with a queued item on a starved
  // tick must take it on the next tick that grants it a share.
  EngineCase c;
  c.pipelines = {pipeline_config(14)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    if (now == engine.tick_us()) {
      for (int w : {1, 4, 6}) engine.set_thread_affinity(0, w, CpuMask::single(0));
    }
    return now % (40 * engine.tick_us()) == 0 ? 2500 : 0;
  };
  c.slices = {20 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, PipelineBesideDataParallelApp) {
  EngineCase c;
  c.platform = "sd855";
  c.apps = {app_config(4, 3.0, 15)};
  c.pipelines = {pipeline_config(16)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    return now % (5 * engine.tick_us()) == 0 ? 60 : 0;
  };
  c.slices = {15 * kUsPerSec};
  expect_identical(c);
}

TEST(QuietSpan, BlackscholesSpansCrossTheSerialWarmup) {
  // blackscholes parses its input on thread 0 alone for several seconds:
  // spans run through that phase on the warm-up's remaining work, and the
  // span that reaches its end stops before the tick that finishes it.
  EngineCase c;
  c.parsec = {ParsecBenchmark::kBlackscholes};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    return now % (5 * engine.tick_us()) == 0 ? 60 : 0;
  };
  c.slices = {2 * kUsPerSec, 10 * kUsPerSec};
  // Per run (reference first): quiet ticks and warm-up state after slice 0.
  std::vector<std::int64_t> quiet_after_first;
  std::vector<bool> warming_after_first;
  c.between_slices = [&](SimEngine& engine, AppPool& pool, std::size_t i) {
    const auto& app = static_cast<const DataParallelApp&>(*pool.front());
    if (i == 0) {
      quiet_after_first.push_back(engine.quiet_ticks());
      warming_after_first.push_back(app.in_warmup());
    } else {
      EXPECT_FALSE(app.in_warmup());
    }
  };
  expect_identical(c);
  ASSERT_EQ(quiet_after_first.size(), 2u);
  EXPECT_TRUE(warming_after_first[1]);
  EXPECT_GT(quiet_after_first[1], 0) << "no span inside the warm-up";
}

// A quiet tick subtracts a lane's work from the thread's remaining work
// and compares the difference with the lane's floor; a data-parallel
// lane's floor 0 stands for execute()'s `rem > can_do`. The two agree on
// every pair of doubles because subtraction underflows gradually: the
// difference of two distinct doubles is never zero.
TEST(QuietSpan, WorkFloorOfZeroIsTheExactComparison) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double normal = std::numeric_limits<double>::min();
  std::vector<double> values = {0.0,          tiny,        2 * tiny,
                                3 * tiny,     normal,      1e-300,
                                1e-12,        0.5,         1.0,
                                3.0,          1e300};
  const std::size_t base = values.size();
  for (std::size_t i = 0; i < base; ++i) {
    values.push_back(std::nextafter(values[i], kInf));
    if (values[i] > 0.0) values.push_back(std::nextafter(values[i], 0.0));
  }
  int pairs = 0;
  for (double rem : values) {
    for (double work : values) {
      EXPECT_EQ(rem > work, rem - work > 0.0)
          << std::hexfloat << rem << " - " << work;
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 400);
}

// The vector lane pass tests its bounds through margins: x - lo >= 0 for
// x >= lo, hi - x >= 0 for x <= hi and r - floor > 0 for r > floor. They
// agree for every finite value against every finite or infinite bound,
// because subtraction underflows gradually and an infinite bound gives
// an infinite margin of the right sign.
TEST(QuietSpan, LaneMarginsAreTheExactComparisons) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> finite = {0.0,  -0.0, tiny, -tiny, 1e-300, 1e-12,
                                0.3,  0.5,  0.8,  1.0,   3.0,    1e300};
  const std::size_t base = finite.size();
  for (std::size_t i = 0; i < base; ++i) {
    finite.push_back(std::nextafter(finite[i], kInf));
    finite.push_back(std::nextafter(finite[i], -kInf));
  }
  std::vector<double> bounds = finite;
  bounds.push_back(kInf);
  bounds.push_back(-kInf);
  int pairs = 0;
  for (double x : finite) {
    for (double b : bounds) {
      EXPECT_EQ(x >= b, x - b >= 0.0) << std::hexfloat << x << " vs " << b;
      EXPECT_EQ(x <= b, b - x >= 0.0) << std::hexfloat << x << " vs " << b;
      EXPECT_EQ(x > b, x - b > 0.0) << std::hexfloat << x << " vs " << b;
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 1000);
}

// --- Retires inside a span -----------------------------------------------
// A data-parallel thread that finishes its share retires inside the span,
// and the next tick runs step()'s head there (its flag flips, GTS places
// the table). Only the retire that closes the barrier, an item hand-off or
// a plan the apps refuse leave the span to step().

TEST(QuietSpan, TwoLanesRetireOnTheSameTick) {
  // Equal work on two big and two little cores, one thread per core: the
  // two big-core threads finish on the same tick, then the two little-core
  // threads close the barrier together, which ends the span.
  EngineCase c;
  c.apps = {app_config(4, 3.0, 21, 0.0)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    if (now == engine.tick_us()) {
      const Machine& m = engine.machine();
      const CpuMask big = m.cluster_mask(m.fastest_cluster());
      const CpuMask little = m.cluster_mask(m.slowest_cluster());
      const CoreId b0 = big.first();
      const CoreId l1 = little.next(little.first());
      engine.set_thread_affinity(0, 0, CpuMask::single(b0));
      engine.set_thread_affinity(0, 1, CpuMask::single(big.next(b0)));
      engine.set_thread_affinity(0, 2, CpuMask::single(l1));
      engine.set_thread_affinity(0, 3, CpuMask::single(little.next(l1)));
    }
    return 0;
  };
  c.slices = {10 * kUsPerSec};
  const EngineRun fast = expect_identical(c);
  // One step per iteration, the tick that closes the barrier.
  EXPECT_GT(total_beats(fast), 20);
  EXPECT_LE(fast.stepped(), total_beats(fast) + 4);
}

TEST(QuietSpan, LastLaneClosesTheBarrier) {
  // Two threads of unequal work: the first retires in the span, the
  // second's retire closes the barrier and runs in step().
  EngineCase c;
  c.apps = {app_config(2, 1.0, 22, 0.3)};
  c.slices = {10 * kUsPerSec};
  const EngineRun fast = expect_identical(c);
  EXPECT_GT(total_beats(fast), 20);
  EXPECT_LE(fast.stepped(), total_beats(fast) + 4);
}

TEST(QuietSpan, RetiresOnManagerChargedTicks) {
  // A charge on every tick: every span tick, retires included, runs the
  // charged capacity variant.
  EngineCase c;
  c.apps = {app_config(8, 4.0, 23, 0.2)};
  c.script = [](SimEngine&, TimeUs) -> TimeUs { return 30; };
  c.slices = {10 * kUsPerSec};
  const EngineRun fast = expect_identical(c);
  EXPECT_LE(fast.stepped(), 3 * total_beats(fast));
}

TEST(QuietSpan, RetireFreesACoreThatACoreMateMovesTo) {
  // sd855: eight unpinned threads share its four big cores two by two.
  // A retire leaves a core with one thread, and GTS moves another there;
  // the span runs the move and GTS's confirming pass in its heads.
  EngineCase c;
  c.platform = "sd855";
  c.apps = {app_config(8, 4.0, 24, 0.2)};
  c.slices = {10 * kUsPerSec};
  const EngineRun fast = expect_identical(c);
  EXPECT_GT(fast.migrations, 20);
  EXPECT_LE(fast.stepped(), 3 * total_beats(fast));
}

// --- Apps joining and leaving ------------------------------------------

/// Every thread-table entry is what the per-thread accessors of its own
/// (alive) app return, and every alive app owns exactly its thread count
/// of entries: AppId -> thread block resolution survives removals of
/// earlier slots.
void expect_thread_lookup_consistent(const SimEngine& engine) {
  std::vector<int> owned(static_cast<std::size_t>(engine.num_apps()), 0);
  for (const SimThread& t : engine.threads()) {
    ASSERT_TRUE(engine.app_alive(t.app)) << "thread " << t.id;
    EXPECT_EQ(engine.thread_core(t.app, t.local_index), t.core);
    EXPECT_EQ(engine.thread_cpu_time_us(t.app, t.local_index), t.cpu_time_us);
    EXPECT_EQ(engine.thread_affinity(t.app, t.local_index).bits(),
              t.affinity.bits());
    ++owned[static_cast<std::size_t>(t.app)];
  }
  for (AppId id = 0; id < engine.num_apps(); ++id) {
    const int expected = engine.app_alive(id) ? engine.app(id).thread_count() : 0;
    EXPECT_EQ(owned[static_cast<std::size_t>(id)], expected) << "app " << id;
  }
}

/// Five apps of different widths; after the first slice the two in the
/// middle of the slot range leave, after the second two more arrive, and
/// after the third the first app and a newcomer leave while another
/// arrives. The manager charges a small cost every fifth tick and
/// re-pins the highest alive app every 300 ticks, so affinities of apps
/// that sit after removed slots are written mid-run.
EngineCase add_remove_case(const std::string& platform) {
  EngineCase c;
  c.platform = platform;
  c.apps = {app_config(4, 3.0, 21), app_config(2, 1.0, 22),
            app_config(3, 2.0, 23), app_config(1, 0.5, 24),
            app_config(2, 1.5, 25)};
  c.script = [](SimEngine& engine, TimeUs now) -> TimeUs {
    const std::int64_t tick = now / engine.tick_us();
    if (tick % 300 == 0) {
      AppId last = engine.num_apps() - 1;
      while (!engine.app_alive(last)) --last;
      const Machine& m = engine.machine();
      engine.set_app_affinity(last, (tick / 300) % 2 == 0
                                        ? m.cluster_mask(m.fastest_cluster())
                                        : m.all_mask());
    }
    return tick % 5 == 0 ? 60 : 0;
  };
  c.slices = {3 * kUsPerSec, 3 * kUsPerSec, 3 * kUsPerSec, 3 * kUsPerSec};
  c.between_slices = [](SimEngine& engine, AppPool& pool, std::size_t i) {
    auto arrive = [&](int threads, double work, std::uint64_t seed) {
      pool.push_back(std::make_unique<DataParallelApp>(
          "late" + std::to_string(pool.size()),
          app_config(threads, work, seed)));
      engine.add_app(pool.back().get());
    };
    if (i == 0) {
      engine.remove_app(1);
      engine.remove_app(3);
    } else if (i == 1) {
      arrive(3, 2.5, 26);  // AppId 5.
      arrive(2, 1.0, 27);  // AppId 6.
    } else if (i == 2) {
      engine.remove_app(0);
      engine.remove_app(5);
      arrive(4, 2.0, 28);  // AppId 7.
    }
    EXPECT_FALSE(engine.app_alive(1));
    EXPECT_FALSE(engine.app_alive(3));
    EXPECT_TRUE(engine.app_alive(2));
    EXPECT_TRUE(engine.app_alive(4));
    EXPECT_NO_THROW(engine.audit_now());
    expect_thread_lookup_consistent(engine);
  };
  return c;
}

TEST(QuietSpan, AppsRemovedMidSlotRangeThenAddedMatchReference) {
  expect_identical(add_remove_case("exynos5422"));
}

TEST(QuietSpan, AppsRemovedMidSlotRangeThenAddedMatchReferenceOnSd855) {
  expect_identical(add_remove_case("sd855"));
}

// app() requires a live id: debug builds assert, release builds leave it
// the precondition documented at app_alive().
TEST(QuietSpanDeathTest, AppOfRemovedIdAsserts) {
  SimEngine engine(*PlatformRegistry::instance().find("exynos5422"),
                   std::make_unique<GtsScheduler>());
  DataParallelApp first("first", app_config(2, 1.0, 29));
  DataParallelApp second("second", app_config(2, 1.0, 30));
  engine.add_app(&first);
  engine.add_app(&second);
  engine.remove_app(0);
  EXPECT_FALSE(engine.app_alive(0));
  EXPECT_EQ(&engine.app(1), &second);
  EXPECT_THROW(engine.remove_app(0), std::out_of_range);
#ifndef NDEBUG
  EXPECT_DEATH(engine.app(0), "app_alive");
#endif
}

// --- Experiment-level cases ---------------------------------------------

/// Wraps a registered variant: forwards everything to it, and at every
/// manager call folds the engine state into a hash. Always installed as
/// the manager (so manager-less variants are observed too); its own
/// on_tick adds no cost. On destruction, at the end of the run, it
/// records the run engine's quiet ticks.
struct ProbeLog {
  Fnv trail;
  std::int64_t calls = 0;
  std::int64_t quiet_ticks = 0;
};

ProbeLog* g_probe_log = nullptr;

/// Forwards the scenario hooks and the post-run queries to `real`.
class ForwardingInstance : public VariantInstance {
 public:
  explicit ForwardingInstance(VariantInstance* real) : real_(real) {}

  void on_app_spawn(AppId app, const PerfTarget& target) override {
    real_->on_app_spawn(app, target);
  }
  void on_app_kill(AppId app) override { real_->on_app_kill(app); }
  void on_app_target(AppId app, const PerfTarget& target) override {
    real_->on_app_target(app, target);
  }
  std::vector<TracePoint> trace(AppId app) const override {
    return real_->trace(app);
  }
  std::optional<SystemState> current_state() const override {
    return real_->current_state();
  }
  std::optional<SystemState> static_state() const override {
    return real_->static_state();
  }
  std::int64_t adaptations() const override { return real_->adaptations(); }

 protected:
  VariantInstance* real_;
};

class ProbeInstance final : public ForwardingInstance {
 public:
  ProbeInstance(std::unique_ptr<VariantInstance> real, SimEngine* engine)
      : ForwardingInstance(real.get()),
        owned_(std::move(real)),
        engine_(engine) {
    inner_ = std::make_unique<Idle>();  // Makes active() true.
  }

  ~ProbeInstance() override {
    if (g_probe_log != nullptr && engine_ != nullptr) {
      g_probe_log->quiet_ticks = engine_->quiet_ticks();
    }
  }

  TimeUs on_tick(TimeUs now) override {
    if (g_probe_log != nullptr && engine_ != nullptr) {
      ++g_probe_log->calls;
      g_probe_log->trail.add(state_hash(*engine_));
    }
    return real_->active() ? real_->on_tick(now) : 0;
  }

 private:
  struct Idle final : ManagerHook {
    TimeUs on_tick(TimeUs) override { return 0; }
  };
  std::unique_ptr<VariantInstance> owned_;
  SimEngine* engine_;
};

std::string probe_name(const std::string& variant) { return "probe:" + variant; }

void register_probe(const std::string& variant) {
  VariantRegistry& registry = VariantRegistry::instance();
  if (registry.find(probe_name(variant)) != nullptr) return;
  const VariantEntry* entry = registry.find(variant);
  ASSERT_NE(entry, nullptr) << variant;
  const VariantFactory real = entry->factory;
  registry.register_variant(
      probe_name(variant), entry->traits,
      [real](const VariantSetup& setup) -> std::unique_ptr<VariantInstance> {
        return std::make_unique<ProbeInstance>(real(setup),
                                               setup.backend.sim_engine());
      });
}

/// What a CountingInstance saw over a run.
struct PollLog {
  std::int64_t calls = 0;  ///< on_tick calls that reached the variant.
  /// Engine state at every due poll that finds a new heartbeat: the polls
  /// that act, which must reach the manager at the same ticks on both
  /// paths.
  Fnv beat_trail;
  std::int64_t beat_polls = 0;
};

PollLog* g_poll_log = nullptr;

/// Forwards everything to a registered variant, idle polls included, and
/// logs the on_tick calls that reach it: on the default path a quiet span
/// charges the idle polls after its first call without one. A new
/// heartbeat of any live app, or an app's arrival or departure, reaches
/// the first due poll after it as a real call on both paths.
class CountingInstance final : public ForwardingInstance {
 public:
  CountingInstance(std::unique_ptr<VariantInstance> real,
                   const VariantSetup& setup)
      : ForwardingInstance(real.get()), backend_(setup.backend) {
    inner_ = std::move(real);
  }

  TimeUs on_tick(TimeUs now) override {
    if (g_poll_log != nullptr && now >= next_due()) {
      std::int64_t beats = 0;
      for (AppId app = 0; app < backend_.num_apps(); ++app) {
        if (backend_.app_alive(app)) beats += backend_.heartbeats(app).count();
      }
      if (beats != beats_at_last_poll_) {
        ++g_poll_log->beat_polls;
        g_poll_log->beat_trail.add(now);
        g_poll_log->beat_trail.add(state_hash(*backend_.sim_engine()));
      }
      beats_at_last_poll_ = beats;
    }
    if (g_poll_log != nullptr) ++g_poll_log->calls;
    return VariantInstance::on_tick(now);
  }

 private:
  Backend& backend_;
  std::int64_t beats_at_last_poll_ = 0;
};

std::string counting_name(const std::string& variant) {
  return "count:" + variant;
}

void register_counting(const std::string& variant) {
  VariantRegistry& registry = VariantRegistry::instance();
  if (registry.find(counting_name(variant)) != nullptr) return;
  const VariantEntry* entry = registry.find(variant);
  ASSERT_NE(entry, nullptr) << variant;
  const VariantFactory real = entry->factory;
  registry.register_variant(
      counting_name(variant), entry->traits,
      [real](const VariantSetup& setup) -> std::unique_ptr<VariantInstance> {
        return std::make_unique<CountingInstance>(real(setup), setup);
      });
}

struct ExperimentRun {
  std::string fingerprint;
  std::string capture;  ///< TraceSink bytes; empty without a capture.
  ProbeLog log;         ///< Under the probe wrapper.
  PollLog polls;        ///< Under the counting wrapper.
};

using Configure = std::function<void(ExperimentBuilder&)>;

/// Runs the experiment `configure` sets up under the registered variant
/// `name`, capturing every `sample_ticks` ticks when that is > 0.
void run_experiment(const std::string& name, bool reference,
                    const Configure& configure, int sample_ticks,
                    ExperimentRun& run) {
  TraceSink sink(std::max(sample_ticks, 1));
  ExperimentBuilder builder;
  configure(builder);
  builder.variant(name);
  if (sample_ticks > 0) builder.capture(sink);
  const Experiment experiment = builder.build();
  const ExperimentResult result =
      reference ? run_reference(experiment) : experiment.run();
  run.fingerprint = result_fingerprint(result);
  if (sample_ticks > 0) run.capture = sink.bytes();
}

/// The run under the probe wrapper of `variant`, which hashes the engine
/// state at every manager call (so no span charges an idle poll).
ExperimentRun run_probed(const std::string& variant, bool reference,
                         const Configure& configure, int sample_ticks = 0) {
  register_probe(variant);
  ExperimentRun run;
  g_probe_log = &run.log;
  run_experiment(probe_name(variant), reference, configure, sample_ticks, run);
  g_probe_log = nullptr;
  return run;
}

/// The run under the counting wrapper of `variant`, which forwards the
/// variant's poll schedule, so the default path's spans charge idle polls
/// inline.
ExperimentRun run_counted(const std::string& variant, bool reference,
                          const Configure& configure, int sample_ticks = 0) {
  register_counting(variant);
  ExperimentRun run;
  g_poll_log = &run.polls;
  run_experiment(counting_name(variant), reference, configure, sample_ticks,
                 run);
  g_poll_log = nullptr;
  return run;
}

/// The first line where two texts differ; empty when they are equal.
/// (EXPECT_EQ on multi-megabyte texts would diff them line by line.)
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return "";
  std::size_t from = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
  while (from > 0 && a[from - 1] != '\n') --from;
  const auto line = [from](const std::string& s) {
    return s.substr(from, s.find('\n', from) - from);
  };
  return "reference: " + line(a) + "\ndefault:   " + line(b);
}

/// The default path must match the reference bit for bit: fingerprint,
/// capture bytes and the engine state at every manager call.
void expect_matches_reference(const ExperimentRun& ref,
                              const ExperimentRun& fast) {
  EXPECT_EQ(first_difference(ref.fingerprint, fast.fingerprint), "");
  EXPECT_EQ(first_difference(ref.capture, fast.capture), "");
  EXPECT_EQ(ref.log.calls, fast.log.calls);
  EXPECT_EQ(ref.log.trail.value(), fast.log.trail.value())
      << "engine state differs at some manager call";
  EXPECT_EQ(ref.log.quiet_ticks, 0);
}

/// Runs `configure`'s experiment on both paths under the counting wrapper
/// and compares them: fingerprint, capture bytes and the engine state at
/// every poll that finds a new heartbeat.
void expect_counted_matches_reference(const std::string& variant,
                                      const Configure& configure,
                                      int sample_ticks = 0) {
  const ExperimentRun ref = run_counted(variant, true, configure, sample_ticks);
  const ExperimentRun fast =
      run_counted(variant, false, configure, sample_ticks);
  EXPECT_EQ(first_difference(ref.fingerprint, fast.fingerprint), "");
  EXPECT_EQ(first_difference(ref.capture, fast.capture), "");
  EXPECT_EQ(ref.polls.beat_polls, fast.polls.beat_polls);
  EXPECT_EQ(ref.polls.beat_trail.value(), fast.polls.beat_trail.value())
      << "engine state differs at some poll that found a new heartbeat";
}

/// Runs `configure`'s experiment on both paths, under the probe and the
/// counting wrapper, and compares them; the default path must have taken
/// spans.
void expect_experiment_identical(const std::string& variant,
                                 const Configure& configure,
                                 int sample_ticks = 0) {
  const ExperimentRun ref = run_probed(variant, true, configure, sample_ticks);
  const ExperimentRun fast = run_probed(variant, false, configure, sample_ticks);
  expect_matches_reference(ref, fast);
  EXPECT_GT(fast.log.quiet_ticks, 0) << "the default path took no span";
  expect_counted_matches_reference(variant, configure, sample_ticks);
}

/// Underscores for the characters gtest names do not allow.
std::string test_name(std::string name) {
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class QuietSpanVariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(QuietSpanVariants, MatchReferenceAtEveryManagerCall) {
  const std::string platform = std::get<0>(GetParam());
  const std::string variant = std::get<1>(GetParam());
  // The two-app pair includes blackscholes' serial warm-up phase; its
  // baseline probe needs the Fig 5.4 duration to see heartbeats.
  const bool multi = variant == "MP-HARS-E" || variant == "CONS-I";
  const std::vector<ParsecBenchmark> apps =
      multi ? std::vector<ParsecBenchmark>{ParsecBenchmark::kBodytrack,
                                           ParsecBenchmark::kBlackscholes}
            : std::vector<ParsecBenchmark>{ParsecBenchmark::kSwaptions};
  const double seconds = multi ? 40 : 20;
  expect_experiment_identical(variant, [&](ExperimentBuilder& b) {
    b.platform(std::string_view(platform)).apps(apps).duration_sec(seconds).seed(11);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, QuietSpanVariants,
    ::testing::Combine(::testing::Values("exynos5422", "sd855"),
                       ::testing::Values("Baseline", "SO", "HARS-E",
                                         "HARS-EI", "MP-HARS-E", "CONS-I")),
    [](const auto& info) {
      return test_name(std::get<0>(info.param) + "_" + std::get<1>(info.param));
    });

// Ferret alone and beside swaptions: PipelineApp spans.
class QuietSpanPipelines
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(QuietSpanPipelines, MatchReferenceAtEveryManagerCall) {
  const std::string platform = std::get<0>(GetParam());
  const std::string variant = std::get<1>(GetParam());
  const bool multi = variant == "MP-HARS-E";
  const std::vector<ParsecBenchmark> apps =
      multi ? std::vector<ParsecBenchmark>{ParsecBenchmark::kFerret,
                                           ParsecBenchmark::kSwaptions}
            : std::vector<ParsecBenchmark>{ParsecBenchmark::kFerret};
  expect_experiment_identical(variant, [&](ExperimentBuilder& b) {
    b.platform(std::string_view(platform)).apps(apps).duration_sec(30).seed(13);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, QuietSpanPipelines,
    ::testing::Combine(::testing::Values("exynos5422", "sd855"),
                       ::testing::Values("Baseline", "HARS-E", "MP-HARS-E")),
    [](const auto& info) {
      return test_name(std::get<0>(info.param) + "_" + std::get<1>(info.param));
    });

// Scenario runs: the tick hook caps spans at its due time — the next event
// and, with a capture attached, the next sample.
class QuietSpanScenarios
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(QuietSpanScenarios, MatchReferenceAtEveryManagerCall) {
  const std::string scenario = std::get<0>(GetParam());
  const int sample_ticks = std::get<1>(GetParam());
  const auto configure = [&](ExperimentBuilder& b) {
    b.scenario(std::string_view(scenario)).duration_sec(60).seed(5);
  };
  const ExperimentRun ref = run_probed("MP-HARS-E", true, configure, sample_ticks);
  const ExperimentRun fast =
      run_probed("MP-HARS-E", false, configure, sample_ticks);
  expect_matches_reference(ref, fast);
  if (sample_ticks == 1) {
    // A sample on every tick leaves no tick to span.
    EXPECT_EQ(fast.log.quiet_ticks, 0);
  } else {
    EXPECT_GT(fast.log.quiet_ticks, 0) << "the default path took no span";
  }
  expect_counted_matches_reference("MP-HARS-E", configure, sample_ticks);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, QuietSpanScenarios,
    ::testing::Combine(
        ::testing::ValuesIn(ScenarioRegistry::instance().names()),
        ::testing::Values(0, 1, 2000)),
    [](const auto& info) {
      return test_name(std::get<0>(info.param)) + "_capture" +
             std::to_string(std::get<1>(info.param));
    });

// The staggered scenario under every registered runtime version, so
// the single-app versions and HARS-I / MP-HARS-I are checked on a
// scenario run too.
class QuietSpanStaggered : public ::testing::TestWithParam<std::string> {};

TEST_P(QuietSpanStaggered, MatchReferenceAtEveryManagerCall) {
  expect_experiment_identical(GetParam(), [](ExperimentBuilder& b) {
    b.scenario(std::string_view("staggered")).duration_sec(60).seed(5);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Variants, QuietSpanStaggered,
    ::testing::ValuesIn(VariantRegistry::instance().names()),
    [](const auto& info) { return test_name(info.param); });

TEST(QuietSpan, GeneratedChurnScenarioMatchesReference) {
  // Every app departs, targets move: spawns, kills and retargets cap spans.
  expect_experiment_identical("MP-HARS-E", [](ExperimentBuilder& b) {
    b.platform(std::string_view("sd855"))
        .scenario(std::string_view("gen:churn:depart=1;retarget=0.05"))
        .duration_sec(60)
        .seed(1);
  });
}

TEST(QuietSpan, GeneratedChurnScenarioWithCaptureMatchesReference) {
  expect_experiment_identical(
      "MP-HARS-E",
      [](ExperimentBuilder& b) {
        b.scenario(std::string_view("gen:churn:depart=1;retarget=0.05"))
            .duration_sec(40)
            .seed(2);
      },
      /*sample_ticks=*/2000);
}

// --- Idle manager polls ------------------------------------------------

struct TickRun {
  std::string fingerprint;
  std::string state;  ///< engine_state() at the end of the run.
  PollLog log;
  std::int64_t quiet_ticks = 0;
};

/// Runs `variant` on `apps` on an engine whose tick is `tick_us`, on the
/// reference tick or the default path.
TickRun run_with_tick(const std::string& variant,
                      const std::vector<ParsecBenchmark>& apps,
                      double seconds, TimeUs tick_us, bool reference) {
  register_counting(variant);
  const std::string platform = "exynos5422";
  const Experiment experiment = ExperimentBuilder()
                                    .platform(std::string_view(platform))
                                    .apps(apps)
                                    .duration_sec(seconds)
                                    .seed(17)
                                    .variant(counting_name(variant))
                                    .build();
  SimConfig config;
  config.tick_us = tick_us;
  std::unique_ptr<Scheduler> scheduler;
  if (reference) {
    scheduler = std::make_unique<ReferenceGtsScheduler>();
  } else {
    scheduler = std::make_unique<GtsScheduler>();
  }
  SimEngine engine(*PlatformRegistry::instance().find(platform),
                   std::move(scheduler), config);
  TickRun run;
  g_poll_log = &run.log;
  ExperimentResult result;
  if (reference) {
    ReferenceSimBackend backend(engine);
    result = experiment.run_on(backend);
  } else {
    SimBackend backend(engine);
    result = experiment.run_on(backend);
  }
  g_poll_log = nullptr;
  run.fingerprint = result_fingerprint(result);
  run.state = engine_state(engine);
  run.quiet_ticks = engine.quiet_ticks();
  return run;
}

// A 0.7 ms tick does not divide the 5 ms poll period, so the polls a span
// charges itself fall between ticks of the grid: each is due on the first
// tick at or after it (5.6 ms apart), as the real call would be. A poll
// lands inside a span that starts soon after a heartbeat, which only the
// span's first, real call may see. blackscholes' serial warm-up emits no
// heartbeat, so its polls are idle from the start.
class QuietSpanIdlePolls : public ::testing::TestWithParam<std::string> {};

TEST_P(QuietSpanIdlePolls, OffGridTickMatchesReference) {
  const std::string variant = GetParam();
  const bool multi = variant != "HARS-E";
  const std::vector<ParsecBenchmark> apps =
      multi ? std::vector<ParsecBenchmark>{ParsecBenchmark::kBodytrack,
                                           ParsecBenchmark::kBlackscholes}
            : std::vector<ParsecBenchmark>{ParsecBenchmark::kBlackscholes};
  constexpr TimeUs kTick = 700;
  const TickRun ref = run_with_tick(variant, apps, 40, kTick, true);
  const TickRun fast = run_with_tick(variant, apps, 40, kTick, false);
  EXPECT_EQ(ref.quiet_ticks, 0);
  EXPECT_GT(fast.quiet_ticks, 0) << "the default path took no span";
  EXPECT_EQ(first_difference(ref.fingerprint, fast.fingerprint), "");
  EXPECT_EQ(first_difference(ref.state, fast.state), "");
  // Every poll that finds a new heartbeat reaches the manager at the same
  // tick and engine state.
  EXPECT_GT(ref.log.beat_polls, 0);
  EXPECT_EQ(ref.log.beat_polls, fast.log.beat_polls);
  EXPECT_EQ(ref.log.beat_trail.value(), fast.log.beat_trail.value());
  // Every reference tick calls the manager, and a poll is due on every
  // eighth one. The default path calls only on due ticks, and not on
  // those whose idle poll a span charged itself.
  EXPECT_LT(fast.log.calls, ref.log.calls / 8 - 100)
      << "no idle poll was charged inline";
}

INSTANTIATE_TEST_SUITE_P(
    Variants, QuietSpanIdlePolls,
    ::testing::Values("HARS-E", "MP-HARS-E", "CONS-I"),
    [](const auto& info) { return test_name(info.param); });

// --- Calibration-shaped runs ---------------------------------------------

/// What a run shaped like a calibration left behind.
struct CalibrationRun {
  std::string state;           ///< engine_state() at the end.
  std::vector<TimeUs> beats;   ///< Heartbeat times: the run's records.
  std::int64_t ticks = 0;
  std::int64_t quiet_ticks = 0;
  std::int64_t migrations = 0;
  std::int64_t stepped() const { return ticks - quiet_ticks; }
};

/// A manager-less GTS run shaped like a calibration (calibrate_benchmark):
/// one PARSEC app alone with all cores online at top frequency, run in
/// 100 ms slices until its first heartbeat, then for kCalibrationUs.
CalibrationRun run_calibration_shaped(const std::string& platform,
                                      ParsecBenchmark bench, bool reference) {
  std::unique_ptr<Scheduler> scheduler;
  if (reference) {
    scheduler = std::make_unique<ReferenceGtsScheduler>();
  } else {
    scheduler = std::make_unique<GtsScheduler>();
  }
  SimEngine engine(*PlatformRegistry::instance().find(platform),
                   std::move(scheduler));
  const std::unique_ptr<App> app = make_parsec_app(bench, 8, 1);
  engine.add_app(app.get());
  const auto run_for = [&](TimeUs dt) {
    if (reference) {
      run_reference_until(engine, engine.now() + dt);
    } else {
      engine.run_for(dt);
    }
  };
  while (app->heartbeats().count() == 0 && engine.now() < 60 * kUsPerSec) {
    run_for(100 * kUsPerMs);
  }
  run_for(kCalibrationUs);
  CalibrationRun run;
  run.state = engine_state(engine);
  for (const HeartbeatRecord& beat : app->heartbeats().history()) {
    run.beats.push_back(beat.time);
  }
  run.ticks = engine.now() / engine.tick_us();
  run.quiet_ticks = engine.quiet_ticks();
  run.migrations = engine.total_migrations();
  return run;
}

// Every PARSEC app's calibration on every registered platform, against
// the reference tick: heartbeat times, energy, busy fractions, per-thread
// cpu time, loads, cores and migrations, bit for bit.
class QuietSpanCalibrations
    : public ::testing::TestWithParam<std::tuple<std::string, ParsecBenchmark>> {};

TEST_P(QuietSpanCalibrations, MatchReference) {
  const std::string platform = std::get<0>(GetParam());
  const ParsecBenchmark bench = std::get<1>(GetParam());
  const CalibrationRun ref = run_calibration_shaped(platform, bench, true);
  const CalibrationRun fast = run_calibration_shaped(platform, bench, false);
  EXPECT_EQ(ref.quiet_ticks, 0);
  EXPECT_GT(fast.quiet_ticks, 0) << "the default path took no span";
  EXPECT_GT(ref.beats.size(), 20u);
  EXPECT_EQ(ref.beats, fast.beats);
  EXPECT_EQ(ref.ticks, fast.ticks);
  EXPECT_EQ(ref.migrations, fast.migrations);
  EXPECT_EQ(first_difference(ref.state, fast.state), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, QuietSpanCalibrations,
    ::testing::Combine(::testing::ValuesIn(PlatformRegistry::instance().names()),
                       ::testing::ValuesIn(all_parsec_benchmarks())),
    [](const auto& info) {
      return test_name(std::get<0>(info.param) + "_" +
                       parsec_code(std::get<1>(info.param)));
    });

// Span shares, pinned as floors at the counts the runs take today: a
// change that silently turns spans off (for pipeline apps, or under a
// scenario hook) fails here. Counts, not timings, so noise cannot fail it.
// The calibration ceilings pin the step() ticks a calibration pays now
// that its threads retire inside spans (before: 3,686 on sd855 and 1,077
// on exynos5422 for swaptions).
TEST(QuietSpanShares, FerretHarsE120s) {
  const ExperimentRun run = run_probed("HARS-E", false, [](ExperimentBuilder& b) {
    b.app(ParsecBenchmark::kFerret).duration_sec(120);
  });
  ASSERT_EQ(run.log.calls, 121200);  // 1.2 s warm-up, then 120 s.
  EXPECT_GE(run.log.quiet_ticks, 117008);
}

TEST(QuietSpanShares, GeneratedChurnMpHarsE60sOnSd855) {
  const ExperimentRun run =
      run_probed("MP-HARS-E", false, [](ExperimentBuilder& b) {
        b.platform(std::string_view("sd855"))
            .scenario(std::string_view("gen:churn"))
            .duration_sec(60);
      });
  ASSERT_EQ(run.log.calls, 60000);
  EXPECT_GE(run.log.quiet_ticks, 58527);
}

TEST(QuietSpanShares, SwaptionsCalibrationOnSd855) {
  const CalibrationRun run =
      run_calibration_shaped("sd855", ParsecBenchmark::kSwaptions, false);
  EXPECT_LE(run.stepped(), 312);
}

TEST(QuietSpanShares, SwaptionsCalibrationOnExynos5422) {
  const CalibrationRun run =
      run_calibration_shaped("exynos5422", ParsecBenchmark::kSwaptions, false);
  EXPECT_LE(run.stepped(), 230);
}

}  // namespace
}  // namespace hars
