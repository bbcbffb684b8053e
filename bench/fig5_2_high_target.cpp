// Regenerates Figure 5.2: performance/watt at the high target
// (75% +/- 5% of max achievable performance), normalized to baseline.
// Expected difference vs. Figure 5.1: smaller efficiency gains (less
// energy slack below the maximum configuration). The bench x version grid
// runs through the SweepEngine (--jobs N parallelizes it).
#include <iostream>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Figure 5.2 reproduction: perf/watt, high target (75% +/- 5%)");
  std::puts("Values normalized to the Baseline version.\n");

  const std::vector<std::string> versions{"Baseline", "SO", "HARS-I",
                                          "HARS-E", "HARS-EI"};
  SweepSpec spec;
  spec.name("fig5_2")
      .base([](ExperimentBuilder& b) { b.target_fraction(0.75); })
      .benchmarks(all_parsec_benchmarks())
      .variants(versions);

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("Performance/Power (normalized to Baseline)");
  std::vector<std::string> cols{"bench"};
  for (const std::string& v : versions) cols.push_back(v);
  table.set_columns(cols);

  std::vector<std::vector<double>> normalized(versions.size());
  for (ParsecBenchmark bench : all_parsec_benchmarks()) {
    const std::string_view code = parsec_code(bench);
    const double baseline_pp = record_number(
        sink.rows(), {{"bench", code}, {"variant", "Baseline"}},
        "perf_per_watt");
    std::vector<double> row;
    for (std::size_t vi = 0; vi < versions.size(); ++vi) {
      const double pp = record_number(
          sink.rows(), {{"bench", code}, {"variant", versions[vi]}},
          "perf_per_watt");
      const double norm = baseline_pp > 0.0 ? pp / baseline_pp : 0.0;
      row.push_back(norm);
      normalized[vi].push_back(norm);
    }
    table.add_row(parsec_code(bench), row);
  }
  std::vector<double> gm_row;
  for (const auto& series : normalized) gm_row.push_back(geomean(series));
  table.add_row("GM", gm_row);
  table.print(std::cout);

  print_sweep_summary(std::cout, report);
  std::puts("Paper shape check: gains over Baseline smaller than Fig 5.1;");
  std::puts("HARS versions remain comparable to SO.");
  return 0;
}
