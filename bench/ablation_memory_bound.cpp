// Ablation: memory-bound workloads vs the estimator's linear-frequency
// assumption. The performance estimator (§3.1.1) assumes rate scales
// linearly with frequency; memory-bound code does not. This bench sweeps
// the memory sensitivity of a synthetic application and reports how well
// HARS-E still lands its target and what the misprediction costs. Each
// case is a two-stage protocol (baseline probe, then the managed run), so
// the sweep uses a custom case runner.
#include <cstdio>
#include <iostream>
#include <memory>

#include "apps/data_parallel_app.hpp"
#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

namespace {

using namespace hars;

AppFactory mem_app(double mem_sensitivity) {
  return [mem_sensitivity](int threads, std::uint64_t seed) {
    DataParallelConfig cfg;
    cfg.threads = threads;
    cfg.speed = SpeedModel{3.0, 2.0, mem_sensitivity};
    cfg.workload = {WorkloadShape::kStable, 4.0, 0.02, 0.0, 1};
    cfg.seed = seed;
    return std::make_unique<DataParallelApp>("mem", cfg);
  };
}

std::vector<Record> run_mem_case(const SweepCase& sweep_case) {
  const double m = sweep_case.number("mem_sensitivity");
  // Calibrate the target against this app's own baseline max: a short
  // cold-start baseline probe through the same pipeline.
  const ExperimentResult probe = ExperimentBuilder()
                                     .app("mem", mem_app(m))
                                     .target(PerfTarget::around(1.0))
                                     .variant("Baseline")
                                     .protocol(RunProtocol::kColdStart)
                                     .duration(20 * kUsPerSec)
                                     .build()
                                     .run();
  const PerfTarget target =
      PerfTarget::around(0.5 * probe.app().metrics.avg_rate_hps);

  const ExperimentResult r = ExperimentBuilder()
                                 .app("mem", mem_app(m))
                                 .target(target)
                                 .variant("HARS-E")
                                 .protocol(RunProtocol::kColdStart)
                                 .duration(120 * kUsPerSec)
                                 .build()
                                 .run();
  Record out;
  out.set("norm_perf", r.app().metrics.norm_perf);
  out.set("avg_power_w", r.app().metrics.avg_power_w);
  out.set("perf_per_watt", r.app().metrics.avg_power_w > 0.0
                               ? r.app().metrics.norm_perf /
                                     r.app().metrics.avg_power_w
                               : 0.0);
  out.set("adaptations", r.adaptations);
  return {out};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Ablation: memory-bound workloads vs the linear-frequency model\n");

  SweepSpec spec;
  spec.name("ablation_memory_bound")
      .values("mem_sensitivity", {0.0, 0.2, 0.4, 0.6}, nullptr)
      .case_runner(run_mem_case);

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("HARS-E across memory sensitivity (target 50% of own max)");
  table.set_columns({"mem sensitivity", "norm perf", "avg power W", "perf/watt",
                     "adaptations"});
  for (const Record& row : sink.rows()) {
    table.add_text_row({format_value(row.number("mem_sensitivity")),
                        format_value(row.number("norm_perf")),
                        format_value(row.number("avg_power_w")),
                        format_value(row.number("perf_per_watt")),
                        std::string(row.text("adaptations"))});
  }
  table.print(std::cout);
  print_sweep_summary(std::cout, report);
  std::puts("Shape check: HARS still reaches the target (the feedback loop");
  std::puts("absorbs the misprediction) but needs more adaptations as the");
  std::puts("estimator's frequency-scaling assumption degrades.");
  return 0;
}
