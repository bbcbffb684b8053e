// Ablation: adaptation period (heartbeats between checks) for HARS-E and
// the freezing-count length for MP-HARS-E — the two cadence knobs the
// thesis fixes but never sweeps. The period x bench grid runs through the
// SweepEngine; the per-period reductions through the Aggregator.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "sweep/aggregator.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Ablation: adaptation cadence\n");

  SweepSpec spec;
  spec.name("ablation_adaptation")
      .base([](ExperimentBuilder& b) {
        b.variant("HARS-E").duration(90 * kUsPerSec);
      })
      .values("period", {2, 5, 10, 20},
              [](ExperimentBuilder& b, double period) {
                b.adapt_period(static_cast<int>(period));
              })
      .benchmarks(
          {ParsecBenchmark::kSwaptions, ParsecBenchmark::kFluidanimate});

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  Aggregator agg;
  agg.group_by({"period"})
      .geomean("perf_per_watt")
      .geomean("norm_perf")
      .mean("manager_cpu_pct");
  const std::vector<Record> grouped = agg.apply(sink.rows());

  ReportTable table("HARS-E adaptation period sweep (swaptions + fluidanimate GM)");
  table.set_columns({"adapt period (hb)", "GM perf/watt", "GM norm perf",
                     "manager CPU %"});
  for (const Record& row : grouped) {
    table.add_row(std::string(row.text("period")),
                  {row.number("geomean_perf_per_watt"),
                   row.number("geomean_norm_perf"),
                   row.number("mean_manager_cpu_pct")});
  }
  table.print(std::cout);
  print_sweep_summary(std::cout, report);
  std::puts("Shape check: very short periods adapt on noisy windows; very");
  std::puts("long periods track phased workloads (FL) sluggishly.");
  return 0;
}
