// Regenerates Figure 5.4: performance/watt of {Baseline, CONS-I,
// MP-HARS-I, MP-HARS-E} on the six two-application cases (targets at
// 50% +/- 5% of each benchmark's standalone maximum), normalized to the
// baseline, with the geometric mean over all per-app bars. The six cases
// form an explicit case axis crossed with the version axis.
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
  std::puts("Figure 5.4 reproduction: multi-application perf/watt");
  std::puts("Values normalized to the Baseline version of the same app/case.\n");

  const std::vector<std::string> versions{"Baseline", "CONS-I", "MP-HARS-I",
                                          "MP-HARS-E"};
  const auto cases = multiapp_cases();

  std::vector<AxisPoint> case_points;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const std::vector<ParsecBenchmark> benches = cases[ci];
    case_points.emplace_back(
        "Case " + std::to_string(ci + 1), static_cast<double>(ci + 1),
        [benches](ExperimentBuilder& b) { b.apps(benches); });
  }

  SweepSpec spec;
  spec.name("fig5_4")
      .base([](ExperimentBuilder& b) { b.duration(150 * kUsPerSec); })
      .axis("mcase", std::move(case_points))
      .variants(versions);

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("Performance/Power (normalized to Baseline)");
  std::vector<std::string> cols{"case", "app"};
  for (const std::string& v : versions) cols.push_back(v);
  table.set_columns(cols);

  const auto pp_of = [&](std::size_t ci, const std::string& version,
                         std::size_t app_index) {
    return record_number(sink.rows(),
                         {{"mcase", format_number(static_cast<double>(ci + 1))},
                          {"variant", version},
                          {"app_index", std::to_string(app_index)}},
                         "perf_per_watt");
  };

  std::vector<std::vector<double>> normalized(versions.size());
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    for (std::size_t ai = 0; ai < cases[ci].size(); ++ai) {
      std::vector<std::string> row{"Case " + std::to_string(ci + 1),
                                   parsec_code(cases[ci][ai])};
      const double base = pp_of(ci, "Baseline", ai);
      for (std::size_t vi = 0; vi < versions.size(); ++vi) {
        const double norm =
            base > 0.0 ? pp_of(ci, versions[vi], ai) / base : 0.0;
        row.push_back(format_value(norm));
        normalized[vi].push_back(norm);
      }
      table.add_text_row(row);
    }
  }
  std::vector<std::string> gm_row{"GM", ""};
  for (const auto& series : normalized) {
    gm_row.push_back(format_value(geomean(series)));
  }
  table.add_text_row(gm_row);
  table.print(std::cout);

  print_sweep_summary(std::cout, report);
  std::puts("Paper shape check: MP-HARS-E > CONS-I > Baseline on GM");
  std::puts("(paper: +217% over baseline, +46% over CONS-I); CONS-I wins");
  std::puts("case 6 (BO+BL) because BL's heartbeats start late.");
  return 0;
}
