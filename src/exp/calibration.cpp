#include "exp/calibration.hpp"

#include <memory>
#include <string>
#include <tuple>

#include "exp/metrics.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"
#include "util/once_cache.hpp"

namespace hars {

Calibration calibrate_benchmark(const PlatformSpec& platform,
                                ParsecBenchmark bench, int threads,
                                std::uint64_t seed, TimeUs duration) {
  using Key = std::tuple<std::string, int, int, std::uint64_t, TimeUs>;
  static OnceCache<Key, Calibration> cache{"calibration"};
  const Key key{platform.signature(), static_cast<int>(bench), threads, seed,
                duration};
  return cache.get_or_compute(key, [&] {
    SimEngine engine(platform, std::make_unique<GtsScheduler>());
    std::unique_ptr<App> app = make_parsec_app(bench, threads, seed);
    const AppId id = engine.add_app(app.get());
    (void)id;

    // Skip warm-up: run until the first heartbeat (blackscholes parses its
    // input serially before emitting any), capped defensively.
    const TimeUs warmup_cap = 60 * kUsPerSec;
    while (app->heartbeats().count() == 0 && engine.now() < warmup_cap) {
      engine.run_for(100 * kUsPerMs);
    }
    const TimeUs t0 = engine.now();
    engine.run_for(duration);

    Calibration cal;
    cal.max_rate_hps =
        average_rate(app->heartbeats().history(), t0, engine.now());
    cal.default_target = cal.target_for_fraction(0.50);
    cal.high_target = cal.target_for_fraction(0.75);
    return cal;
  });
}

}  // namespace hars
