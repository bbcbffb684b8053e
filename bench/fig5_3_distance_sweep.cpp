// Regenerates Figure 5.3: (a) geometric-mean normalized perf/watt and
// (b) runtime-manager CPU utilization of HARS-EI as the search distance d
// sweeps 1..9 (step 2), for both targets. Perf/watt is normalized to d=1,
// as in the paper. The fraction x distance x bench grid is one SweepSpec;
// the per-(fraction, distance) geomean/mean reductions run through the
// Aggregator.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "sweep/aggregator.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Figure 5.3 reproduction: efficiency & overhead vs distance d");
  std::puts("HARS-EI, all six benchmarks, geometric mean; d in {1,3,5,7,9}.\n");

  const std::vector<int> distances{1, 3, 5, 7, 9};
  const std::vector<double> fractions{0.50, 0.75};

  SweepSpec spec;
  spec.name("fig5_3")
      .base([](ExperimentBuilder& b) {
        b.variant("HARS-EI").duration(90 * kUsPerSec);
      })
      .target_fractions(fractions)
      .search_distances(distances)
      .benchmarks(all_parsec_benchmarks());

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  Aggregator agg;
  agg.group_by({"fraction", "distance"})
      .geomean("perf_per_watt")
      .mean("manager_cpu_pct");
  const std::vector<Record> grouped = agg.apply(sink.rows());

  const auto grouped_value = [&](double fraction, int d,
                                 std::string_view column) {
    return record_number(grouped,
                         {{"fraction", format_number(fraction)},
                          {"distance", std::to_string(d)}},
                         column);
  };

  ReportTable table_a("(a) Normalized perf/watt vs distance (normalized to d=1)");
  table_a.set_columns({"d", "Default Perf. Target", "High Perf. Target"});
  for (int d : distances) {
    std::vector<double> row;
    for (double fraction : fractions) {
      const double at_d1 = grouped_value(fraction, 1, "geomean_perf_per_watt");
      row.push_back(grouped_value(fraction, d, "geomean_perf_per_watt") /
                    at_d1);
    }
    table_a.add_row(std::to_string(d), row);
  }
  table_a.print(std::cout);

  ReportTable table_b("(b) HARS CPU utilization (%) vs distance");
  table_b.set_columns({"d", "Default Perf. Target", "High Perf. Target"});
  for (int d : distances) {
    std::vector<double> row;
    for (double fraction : fractions) {
      row.push_back(grouped_value(fraction, d, "mean_manager_cpu_pct"));
    }
    table_b.add_row(std::to_string(d), row);
  }
  table_b.print(std::cout);

  print_sweep_summary(std::cout, report);
  std::puts("Paper shape check: efficiency rises with d and flattens around");
  std::puts("d ~ 5-7; CPU utilization grows with d but stays small (< ~6%).");
  return 0;
}
