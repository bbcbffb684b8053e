#include "apps/parsec.hpp"

#include <stdexcept>

#include "apps/data_parallel_app.hpp"
#include "apps/pipeline_app.hpp"

namespace hars {

const char* parsec_code(ParsecBenchmark bench) {
  switch (bench) {
    case ParsecBenchmark::kBlackscholes: return "BL";
    case ParsecBenchmark::kBodytrack: return "BO";
    case ParsecBenchmark::kFacesim: return "FA";
    case ParsecBenchmark::kFerret: return "FE";
    case ParsecBenchmark::kFluidanimate: return "FL";
    case ParsecBenchmark::kSwaptions: return "SW";
  }
  return "??";
}

const char* parsec_name(ParsecBenchmark bench) {
  switch (bench) {
    case ParsecBenchmark::kBlackscholes: return "blackscholes";
    case ParsecBenchmark::kBodytrack: return "bodytrack";
    case ParsecBenchmark::kFacesim: return "facesim";
    case ParsecBenchmark::kFerret: return "ferret";
    case ParsecBenchmark::kFluidanimate: return "fluidanimate";
    case ParsecBenchmark::kSwaptions: return "swaptions";
  }
  return "unknown";
}

std::optional<ParsecBenchmark> parse_parsec_benchmark(std::string_view name) {
  for (ParsecBenchmark bench : all_parsec_benchmarks()) {
    if (name == parsec_code(bench) || name == parsec_name(bench)) return bench;
  }
  return std::nullopt;
}

std::vector<ParsecBenchmark> all_parsec_benchmarks() {
  return {ParsecBenchmark::kBlackscholes, ParsecBenchmark::kBodytrack,
          ParsecBenchmark::kFacesim,      ParsecBenchmark::kFerret,
          ParsecBenchmark::kFluidanimate, ParsecBenchmark::kSwaptions};
}

std::vector<ParsecBenchmark> multiapp_parsec_benchmarks() {
  return {ParsecBenchmark::kBlackscholes, ParsecBenchmark::kBodytrack,
          ParsecBenchmark::kFluidanimate, ParsecBenchmark::kSwaptions};
}

double parsec_true_ratio(ParsecBenchmark bench) {
  return bench == ParsecBenchmark::kBlackscholes ? 1.0 : 1.5;
}

std::unique_ptr<App> make_parsec_app(ParsecBenchmark bench, int threads,
                                     std::uint64_t seed) {
  switch (bench) {
    case ParsecBenchmark::kBlackscholes: {
      DataParallelConfig cfg;
      cfg.threads = threads;
      cfg.speed = SpeedModel{2.4, 2.4};  // r = 1.0: no out-of-order win.
      cfg.workload = {WorkloadShape::kStable, 4.0, 0.01, 0.0, 1};
      cfg.imbalance = 0.01;
      cfg.warmup_work = 40.0;  // Serial option-file parsing, no heartbeats.
      cfg.seed = seed;
      return std::make_unique<DataParallelApp>("blackscholes", cfg);
    }
    case ParsecBenchmark::kBodytrack: {
      DataParallelConfig cfg;
      cfg.threads = threads;
      cfg.speed = SpeedModel{3.0, 2.0};
      cfg.workload = {WorkloadShape::kNoisy, 5.0, 0.10, 0.0, 1};
      cfg.imbalance = 0.05;
      cfg.seed = seed;
      return std::make_unique<DataParallelApp>("bodytrack", cfg);
    }
    case ParsecBenchmark::kFacesim: {
      DataParallelConfig cfg;
      cfg.threads = threads;
      cfg.speed = SpeedModel{3.0, 2.0};
      cfg.workload = {WorkloadShape::kPhased, 10.0, 0.05, 0.15, 40};
      cfg.imbalance = 0.04;
      cfg.seed = seed;
      return std::make_unique<DataParallelApp>("facesim", cfg);
    }
    case ParsecBenchmark::kFerret: {
      PipelineConfig cfg;
      // load -> seg -> extract -> vec -> rank -> out; middle stages carry
      // the compute, serial endpoints are light I/O.
      cfg.stages = {{1, 0.20}, {1, 0.60}, {2, 1.60},
                    {2, 1.60}, {1, 0.60}, {1, 0.20}};
      cfg.speed = SpeedModel{3.0, 2.0};
      cfg.max_in_flight = 32;
      cfg.work_noise = 0.05;
      cfg.seed = seed;
      return std::make_unique<PipelineApp>("ferret", cfg);
    }
    case ParsecBenchmark::kFluidanimate: {
      DataParallelConfig cfg;
      cfg.threads = threads;
      cfg.speed = SpeedModel{3.0, 2.0};
      cfg.workload = {WorkloadShape::kPhased, 6.0, 0.08, 0.20, 60};
      cfg.imbalance = 0.05;
      cfg.seed = seed;
      return std::make_unique<DataParallelApp>("fluidanimate", cfg);
    }
    case ParsecBenchmark::kSwaptions: {
      DataParallelConfig cfg;
      cfg.threads = threads;
      cfg.speed = SpeedModel{3.0, 2.0};
      cfg.workload = {WorkloadShape::kStable, 6.0, 0.005, 0.0, 1};
      cfg.imbalance = 0.01;
      cfg.seed = seed;
      return std::make_unique<DataParallelApp>("swaptions", cfg);
    }
  }
  throw std::invalid_argument("unknown ParsecBenchmark");
}

}  // namespace hars
