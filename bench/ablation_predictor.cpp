// Ablation (§3.1.4 option 1): the last-value workload predictor vs the
// Kalman-filter rate predictor, on the noisy (bodytrack) and phased
// (fluidanimate) benchmarks where windowed rates jitter the most. The
// bench x predictor grid is one SweepSpec.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Ablation: rate predictor (HARS-E, default target)\n");

  std::vector<AxisPoint> predictors;
  for (PredictorKind kind : {PredictorKind::kLastValue, PredictorKind::kKalman}) {
    predictors.emplace_back(predictor_kind_name(kind),
                            [kind](ExperimentBuilder& b) { b.predictor(kind); });
  }

  SweepSpec spec;
  spec.name("ablation_predictor")
      .base([](ExperimentBuilder& b) {
        b.variant("HARS-E").duration(100 * kUsPerSec);
      })
      .benchmarks({ParsecBenchmark::kBodytrack, ParsecBenchmark::kFluidanimate,
                   ParsecBenchmark::kSwaptions})
      .axis("predictor", std::move(predictors));

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("last-value vs Kalman predictor");
  table.set_columns({"bench", "predictor", "perf/watt", "norm perf",
                     "in-window %", "adaptations proxy (mgr CPU %)"});
  for (const Record& row : sink.rows()) {
    table.add_text_row({std::string(row.text("bench")),
                        std::string(row.text("predictor")),
                        format_value(row.number("perf_per_watt")),
                        format_value(row.number("norm_perf")),
                        format_value(100.0 * row.number("in_window_fraction")),
                        format_value(row.number("manager_cpu_pct"))});
  }
  table.print(std::cout);
  print_sweep_summary(std::cout, report);
  std::puts("Shape check: Kalman smooths window jitter, raising the");
  std::puts("in-window share on noisy/phased workloads without hurting");
  std::puts("the stable one.");
  return 0;
}
