#include "exp/calibration.hpp"

#include <compare>
#include <memory>

#include "exp/metrics.hpp"
#include "hmp/sim_engine.hpp"
#include "sched/gts.hpp"
#include "util/fan_out.hpp"
#include "util/once_cache.hpp"

namespace hars {

namespace {

struct CalibrationKey {
  std::uint32_t platform_id = 0;  ///< PlatformSpec::signature_id().
  ParsecBenchmark bench = ParsecBenchmark::kSwaptions;
  int threads = 0;
  std::uint64_t seed = 0;
  TimeUs duration = 0;

  auto operator<=>(const CalibrationKey&) const = default;
};

OnceCache<CalibrationKey, Calibration>& calibration_cache() {
  static OnceCache<CalibrationKey, Calibration> cache{"calibration"};
  return cache;
}

/// calibrate_benchmark for a key whose platform id the caller computed
/// (once per batch: building a signature costs about as much as a hit).
Calibration calibrate_keyed(const PlatformSpec& platform,
                            const CalibrationKey& key) {
  return calibration_cache().get_or_compute(key, [&] {
    SimEngine engine(platform, std::make_unique<GtsScheduler>());
    std::unique_ptr<App> app =
        make_parsec_app(key.bench, key.threads, key.seed);
    const AppId id = engine.add_app(app.get());
    (void)id;

    // Skip warm-up: run until the first heartbeat (blackscholes parses its
    // input serially before emitting any), capped defensively.
    const TimeUs warmup_cap = 60 * kUsPerSec;
    while (app->heartbeats().count() == 0 && engine.now() < warmup_cap) {
      engine.run_for(100 * kUsPerMs);
    }
    const TimeUs t0 = engine.now();
    engine.run_for(key.duration);

    Calibration cal;
    cal.max_rate_hps =
        average_rate(app->heartbeats().history(), t0, engine.now());
    cal.default_target = cal.target_for_fraction(0.50);
    cal.high_target = cal.target_for_fraction(0.75);
    return cal;
  });
}

}  // namespace

Calibration calibrate_benchmark(const PlatformSpec& platform,
                                ParsecBenchmark bench, int threads,
                                std::uint64_t seed, TimeUs duration) {
  return calibrate_keyed(
      platform, {platform.signature_id(), bench, threads, seed, duration});
}

std::vector<Calibration> calibrate_benchmarks(
    const PlatformSpec& platform,
    const std::vector<CalibrationRequest>& requests) {
  const std::uint32_t platform_id = platform.signature_id();
  std::vector<CalibrationKey> keys;
  keys.reserve(requests.size());
  std::vector<std::size_t> cold;
  std::vector<std::size_t> warm;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CalibrationRequest& r = requests[i];
    keys.push_back({platform_id, r.bench, r.threads, r.seed, kCalibrationUs});
    (calibration_cache().contains(keys.back()) ? warm : cold).push_back(i);
  }
  std::vector<Calibration> results(requests.size());
  fan_out_each(cold.size(), [&](std::size_t k) {
    results[cold[k]] = calibrate_keyed(platform, keys[cold[k]]);
  });
  for (std::size_t i : warm) results[i] = calibrate_keyed(platform, keys[i]);
  return results;
}

}  // namespace hars
