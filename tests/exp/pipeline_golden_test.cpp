// Record goldens for the experiment pipeline. Every case below runs one
// Experiment and hashes its result_fingerprint (every metric, target,
// span, trace point and state, doubles round-tripped) — plus, where the
// case has them, the sampler's observations or the captured trace bytes.
// The goldens were generated before the run paths were folded into one
// pipeline; any drift in a simulated bit fails here with the full
// fingerprint printed. Durations are shortened so the suite stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "backend/backend_registry.hpp"
#include "backend/mock_linux_backend.hpp"
#include "exp/experiment.hpp"
#include "oracle/fuzz_harness.hpp"
#include "oracle/repro.hpp"
#include "scenario/trace_sink.hpp"
#include "sweep/result_sink.hpp"

namespace hars {
namespace {

/// FNV-1a 64 of the fingerprint, as 16 hex digits.
std::string digest(const std::string& print) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : print) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

const std::map<std::string, std::string>& goldens() {
  static const std::map<std::string, std::string> k = {
      {"fig5_1/BL/Baseline", "88d929ad54337bdc"},
      {"fig5_1/BL/SO", "7ef46f5fc8e3f917"},
      {"fig5_1/BL/HARS-I", "41cb2047087a307f"},
      {"fig5_1/BL/HARS-E", "203f4931bf5bce02"},
      {"fig5_1/BL/HARS-EI", "203f4931bf5bce02"},
      {"fig5_1/BO/Baseline", "2707ef2b56eca048"},
      {"fig5_1/BO/SO", "52cfe00b6a000c7e"},
      {"fig5_1/BO/HARS-I", "bfde9e1cdb1e0355"},
      {"fig5_1/BO/HARS-E", "b8763ceaa24a7222"},
      {"fig5_1/BO/HARS-EI", "b8763ceaa24a7222"},
      {"fig5_1/FA/Baseline", "60ceccd428ebc36a"},
      {"fig5_1/FA/SO", "e102df37fc4ef5e8"},
      {"fig5_1/FA/HARS-I", "759fc610def6c167"},
      {"fig5_1/FA/HARS-E", "79fa79db4a200cfe"},
      {"fig5_1/FA/HARS-EI", "79fa79db4a200cfe"},
      {"fig5_1/FE/Baseline", "41a897f253e55aea"},
      {"fig5_1/FE/SO", "840b1a7f306217ba"},
      {"fig5_1/FE/HARS-I", "da2f618a211cd751"},
      {"fig5_1/FE/HARS-E", "fd77a63d824ec7e7"},
      {"fig5_1/FE/HARS-EI", "ce4f852ba0fbf301"},
      {"fig5_1/FL/Baseline", "ff188d1c312289ce"},
      {"fig5_1/FL/SO", "1bd7a2a6d0d97f92"},
      {"fig5_1/FL/HARS-I", "3985eb0522b86f3d"},
      {"fig5_1/FL/HARS-E", "f1fe5db3536e936c"},
      {"fig5_1/FL/HARS-EI", "6a52045d24b17cfd"},
      {"fig5_1/SW/Baseline", "baa520a21bf46d32"},
      {"fig5_1/SW/SO", "c23143d19621b687"},
      {"fig5_1/SW/HARS-I", "1e737781c43a622b"},
      {"fig5_1/SW/HARS-E", "3838c765fb3f20e3"},
      {"fig5_1/SW/HARS-EI", "3838c765fb3f20e3"},
      {"fig5_4/case1/Baseline", "d706ec8465fb2f57"},
      {"fig5_4/case1/CONS-I", "f3eea4c51a1596c4"},
      {"fig5_4/case1/MP-HARS-I", "66f8d8a866c28a23"},
      {"fig5_4/case1/MP-HARS-E", "2c67ffff8d203dfd"},
      {"fig5_4/case2/Baseline", "ffaac188f320d687"},
      {"fig5_4/case2/CONS-I", "c4ddb39f1c29a976"},
      {"fig5_4/case2/MP-HARS-I", "e97c771c2b711403"},
      {"fig5_4/case2/MP-HARS-E", "f8f20e3852099e57"},
      {"fig5_4/case3/Baseline", "4b83d05457efc9ee"},
      {"fig5_4/case3/CONS-I", "7d88e3a6334e2be2"},
      {"fig5_4/case3/MP-HARS-I", "19da27c4cfa4da12"},
      {"fig5_4/case3/MP-HARS-E", "4e4787f6fa5184e5"},
      {"fig5_4/case4/Baseline", "e0b7aa5561136fc0"},
      {"fig5_4/case4/CONS-I", "d45738dee8002bd9"},
      {"fig5_4/case4/MP-HARS-I", "1f3b2ecadf1fea15"},
      {"fig5_4/case4/MP-HARS-E", "ab93ec5691bb0636"},
      {"fig5_4/case5/Baseline", "0b4ef51428a4609e"},
      {"fig5_4/case5/CONS-I", "537ca40c119c3e23"},
      {"fig5_4/case5/MP-HARS-I", "9f4435b88e5782f1"},
      {"fig5_4/case5/MP-HARS-E", "54859dbaf2928fa0"},
      {"fig5_4/case6/Baseline", "ca5f8fbf89c32271"},
      {"fig5_4/case6/CONS-I", "70cc893af84dbb9d"},
      {"fig5_4/case6/MP-HARS-I", "37f1ac69b38241de"},
      {"fig5_4/case6/MP-HARS-E", "ecc82fbfadf20c5c"},
      {"scenario/steady/HARS-E", "a0c71b8f6dba9476"},
      {"scenario/steady/MP-HARS-E", "ee2e76c690102d83"},
      {"scenario/staggered/HARS-E", "2c464c5259231427"},
      {"scenario/staggered/MP-HARS-E", "da477b0b29be8c6c"},
      {"scenario/bursty/HARS-E", "a60f4d54ba918298"},
      {"scenario/bursty/MP-HARS-E", "a113f955ed8a1081"},
      {"scenario/rush_hour/HARS-E", "34a5f825bf0ad0e0"},
      {"scenario/rush_hour/MP-HARS-E", "fb8e207626208c03"},
      {"scenario/core_failure/HARS-E", "602d6ea530efa03b"},
      {"scenario/core_failure/MP-HARS-E", "d238b50b6882d6cc"},
      {"capture/staggered/MP-HARS-E", "e3853dc084dfaabd"},
      {"corpus/pass_mixed_HARS-E_exynos5422.scenario.csv", "510767d1ae4c9e02"},
      {"corpus/r0_MP-HARS-E_exynos5422.scenario.csv", "c8b002f042a3c51b"},
      {"corpus/r2_HARS-E_exynos5422.scenario.csv", "5079a22eeecba8d0"},
      {"live/mock_linux/HARS-E", "f1e27457d65c8c6c"},
      {"live/mock_linux/MP-HARS-E/kernel_log", "0748e6bb9272c41c"},
      {"live/mock_linux/HARS-EI/kernel_log", "2bdad78235a46338"},
      {"live/mock_linux/CONS-I/kernel_log", "fb4fd041cf630c96"},
      {"custom/HARS-EI", "32146a77c8096635"},
      {"sampled/steady/HARS-E", "c6570f882514926a"},
      {"sampled/staggered/MP-HARS-E", "79cea7a420fc5b70"},
  };
  return k;
}

void expect_golden(const std::string& name, const std::string& print) {
  const auto it = goldens().find(name);
  const std::string got = digest(print);
  const std::string want = it == goldens().end() ? "<none>" : it->second;
  EXPECT_EQ(got, want) << "case " << name << " drifted; full fingerprint:\n"
                       << print;
}

TEST(PipelineGolden, Fig51SingleAppGrid) {
  for (ParsecBenchmark bench : all_parsec_benchmarks()) {
    for (const char* variant :
         {"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"}) {
      const ExperimentResult r = ExperimentBuilder()
                                     .app(bench)
                                     .variant(variant)
                                     .target_fraction(0.5)
                                     .duration_sec(10)
                                     .build()
                                     .run();
      expect_golden(std::string("fig5_1/") + std::string(parsec_code(bench)) +
                        "/" + variant,
                    result_fingerprint(r));
    }
  }
}

TEST(PipelineGolden, Fig54MultiAppGrid) {
  const std::vector<std::vector<ParsecBenchmark>> cases = multiapp_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const char* variant :
         {"Baseline", "CONS-I", "MP-HARS-I", "MP-HARS-E"}) {
      const ExperimentResult r = ExperimentBuilder()
                                     .apps(cases[c])
                                     .variant(variant)
                                     .duration_sec(40)
                                     .build()
                                     .run();
      expect_golden("fig5_4/case" + std::to_string(c + 1) + "/" + variant,
                    result_fingerprint(r));
    }
  }
}

TEST(PipelineGolden, ScenarioPresets) {
  const std::vector<std::pair<const char*, double>> presets = {
      {"steady", 10}, {"staggered", 36}, {"bursty", 45},
      {"rush_hour", 50}, {"core_failure", 30}};
  for (const auto& [preset, seconds] : presets) {
    for (const char* variant : {"HARS-E", "MP-HARS-E"}) {
      const ExperimentResult r = ExperimentBuilder()
                                     .scenario(std::string_view(preset))
                                     .variant(variant)
                                     .duration_sec(seconds)
                                     .seed(3)
                                     .build()
                                     .run();
      expect_golden(std::string("scenario/") + preset + "/" + variant,
                    result_fingerprint(r));
    }
  }
}

TEST(PipelineGolden, CapturedScenarioTrace) {
  TraceSink sink(50);
  const ExperimentResult r = ExperimentBuilder()
                                 .scenario(std::string_view("staggered"))
                                 .variant("MP-HARS-E")
                                 .duration_sec(36)
                                 .capture(sink)
                                 .build()
                                 .run();
  expect_golden("capture/staggered/MP-HARS-E",
                result_fingerprint(r) + sink.bytes());
}

TEST(PipelineGolden, FuzzCorpusRepros) {
  const std::filesystem::path corpus =
      std::filesystem::path(__FILE__).parent_path() / "../../fuzz/corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 3u);
  for (const std::filesystem::path& file : files) {
    const ReproCase repro = parse_repro_file(file.string());
    ExperimentBuilder b;
    b.platform(std::string_view(repro.platform))
        .scenario(repro.scenario)
        .variant(repro.variant)
        .target_fraction(repro.fraction)
        .duration_sec(repro.duration_sec)
        .seed(repro.seed)
        .audit(true);
    if (repro.threads > 0) b.threads(repro.threads);
    expect_golden("corpus/" + file.filename().string(),
                  result_fingerprint(b.build().run()));
  }
}

TEST(PipelineGolden, MockLinuxLiveRun) {
  ExperimentResult r = ExperimentBuilder()
                           .backend("mock_linux")
                           .app(ParsecBenchmark::kSwaptions)
                           .variant("HARS-E")
                           .duration_sec(10)
                           .threads(4)
                           .build()
                           .run();
  // Live backends measure the manager's CPU share on the wall clock;
  // everything else about the mock run is deterministic.
  for (AppRunResult& app : r.apps) app.metrics.manager_cpu_pct = 0.0;
  expect_golden("live/mock_linux/HARS-E", result_fingerprint(r));
}

/// What the mock kernel saw over a live run, appended as the backend is
/// torn down: every sysfs write, every affinity call, each workload's
/// heartbeat count and the metered energy.
std::string& kernel_log() {
  static std::string log;
  return log;
}

class LoggedMockLinux final : public MockLinuxBackend {
 public:
  explicit LoggedMockLinux(LinuxBackendConfig config)
      : MockLinuxBackend(FakeSysfs::exynos5422(), std::move(config)) {}

  ~LoggedMockLinux() override {
    std::string& log = kernel_log();
    for (const SysfsWrite& w : fake_sysfs().writes()) {
      log += w.path + '=' + w.value + '\n';
    }
    for (const AffinityCall& call : fake_threads().affinity_calls()) {
      log += std::to_string(call.app) + '/' + std::to_string(call.local_tid) +
             ':';
      for (const int cpu : call.cpus) log += std::to_string(cpu) + ',';
      log += '\n';
    }
    for (AppId app = 0; app < num_apps(); ++app) {
      log += "beats " + std::to_string(heartbeats(app).count()) + '\n';
    }
    log += "energy_j " + format_number(energy_j()) + '\n';
  }
};

/// Runs `variant` over the exynos5422 fixture for 10 s (4 threads per
/// workload) and returns the kernel log.
std::string logged_mock_run(const std::string& variant,
                            const std::vector<ParsecBenchmark>& benches) {
  BackendRegistry::instance().register_backend(
      {"mock_linux_logged", "mock_linux recording its kernel-side logs",
       [](const BackendOptions& options) -> std::unique_ptr<Backend> {
         LinuxBackendConfig config = MockLinuxBackend::mock_config();
         config.platform = options.platform;
         return std::make_unique<LoggedMockLinux>(std::move(config));
       }},
      /*replace=*/true);
  kernel_log().clear();
  ExperimentBuilder b;
  b.backend("mock_linux_logged").variant(variant).duration_sec(10).threads(4);
  for (const ParsecBenchmark bench : benches) b.app(bench);
  b.build().run();
  return kernel_log();
}

// The mock paths MockLinuxLiveRun does not reach: two workloads under one
// multi-app manager, HARS-EI's interleaved per-thread placement, and
// CONS-I, the variant that hotplugs.
TEST(PipelineGolden, MockLinuxMultiAppKernelLog) {
  const std::string log =
      logged_mock_run("MP-HARS-E", {ParsecBenchmark::kSwaptions,
                                    ParsecBenchmark::kBlackscholes});
  EXPECT_NE(log.find("\n1/0:"), std::string::npos);  // Second app placed.
  expect_golden("live/mock_linux/MP-HARS-E/kernel_log", log);
}

TEST(PipelineGolden, MockLinuxInterleavedKernelLog) {
  const std::string log =
      logged_mock_run("HARS-EI", {ParsecBenchmark::kSwaptions});
  expect_golden("live/mock_linux/HARS-EI/kernel_log", log);
}

TEST(PipelineGolden, MockLinuxHotplugKernelLog) {
  const std::string log =
      logged_mock_run("CONS-I", {ParsecBenchmark::kSwaptions});
  EXPECT_NE(log.find("/online=0"), std::string::npos);  // Cores offlined.
  expect_golden("live/mock_linux/CONS-I/kernel_log", log);
}

AppFactory stable_app() {
  return [](int threads, std::uint64_t seed) {
    DataParallelConfig cfg;
    cfg.threads = threads;
    cfg.speed = SpeedModel{3.0, 2.0};
    cfg.workload = {WorkloadShape::kStable, 4.0, 0.02, 0.0, 1};
    cfg.seed = seed;
    return std::make_unique<DataParallelApp>("custom", cfg);
  };
}

TEST(PipelineGolden, CustomFactoryApp) {
  // No explicit target and no benchmark identity: the target derives
  // from the (uncached) concurrent baseline probe.
  const ExperimentResult r = ExperimentBuilder()
                                 .app("custom", stable_app())
                                 .variant("HARS-EI")
                                 .duration_sec(15)
                                 .seed(5)
                                 .build()
                                 .run();
  expect_golden("custom/HARS-EI", result_fingerprint(r));
}

/// What a sampler sees: time, per-app beats and rate, the variant's
/// adaptation count and the machine's online mask.
SampleFn trail_sampler(std::string& trail) {
  return [&trail](const RunView& view) {
    trail += std::to_string(view.now) + ':';
    for (std::size_t i = 0; i < view.apps.size(); ++i) {
      trail += std::to_string(view.app_ids[i]) + '/' +
               std::to_string(view.apps[i]->heartbeats().count()) + '/' +
               format_number(view.apps[i]->heartbeats().rate()) + ',';
    }
    trail += std::to_string(view.variant.adaptations()) + '/' +
             std::to_string(view.engine.machine().online_mask().count()) + ';';
  };
}

TEST(PipelineGolden, SampledRuns) {
  std::string trail;
  const ExperimentResult single = ExperimentBuilder()
                                      .app(ParsecBenchmark::kBodytrack)
                                      .variant("HARS-E")
                                      .duration_sec(12)
                                      .sample_every(kUsPerSec,
                                                    trail_sampler(trail))
                                      .build()
                                      .run();
  expect_golden("sampled/steady/HARS-E", result_fingerprint(single) + trail);

  trail.clear();
  const ExperimentResult scenario =
      ExperimentBuilder()
          .scenario(std::string_view("staggered"))
          .variant("MP-HARS-E")
          .duration_sec(36)
          .sample_every(2 * kUsPerSec, trail_sampler(trail))
          .build()
          .run();
  expect_golden("sampled/staggered/MP-HARS-E",
                result_fingerprint(scenario) + trail);
}

}  // namespace
}  // namespace hars
