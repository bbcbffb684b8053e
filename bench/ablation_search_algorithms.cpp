// Ablation (§3.1.4 option 4): search algorithms — HARS-I's one-step
// incremental sweep, HARS-E's exhaustive neighbourhood, and the tabu-
// search trajectory proposed as the escape from local optima. The
// bench x policy grid is one SweepSpec; the per-policy GM one Aggregator.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "sweep/aggregator.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Ablation: search algorithm (default target)\n");

  const std::vector<SearchPolicy> policies{SearchPolicy::kIncremental,
                                           SearchPolicy::kExhaustive,
                                           SearchPolicy::kTabu};
  std::vector<AxisPoint> policy_points;
  for (SearchPolicy policy : policies) {
    policy_points.emplace_back(search_policy_name(policy),
                               [policy](ExperimentBuilder& b) {
                                 b.policy(policy);
                               });
  }

  SweepSpec spec;
  spec.name("ablation_search_algorithms")
      .base([](ExperimentBuilder& b) {
        b.variant("HARS-E").duration(100 * kUsPerSec);
      })
      .benchmarks(all_parsec_benchmarks())
      .axis("policy", std::move(policy_points));

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("incremental vs exhaustive vs tabu");
  table.set_columns({"bench", "policy", "perf/watt", "norm perf",
                     "mgr CPU %"});
  for (const Record& row : sink.rows()) {
    table.add_text_row({std::string(row.text("bench")),
                        std::string(row.text("policy")),
                        format_value(row.number("perf_per_watt")),
                        format_value(row.number("norm_perf")),
                        format_value(row.number("manager_cpu_pct"))});
  }
  Aggregator agg;
  agg.group_by({"policy"}).geomean("perf_per_watt");
  for (const Record& row : agg.apply(sink.rows())) {
    table.add_text_row({"GM", std::string(row.text("policy")),
                        format_value(row.number("geomean_perf_per_watt")), "",
                        ""});
  }
  table.print(std::cout);
  print_sweep_summary(std::cout, report);
  std::puts("Shape check: exhaustive and tabu clearly beat incremental;");
  std::puts("tabu is competitive with exhaustive at lower candidate cost.");
  return 0;
}
