// Ablation (§3.1.4 option 3): stock GTS vs an EAS-style idle-pull
// scheduler as the OS substrate. Stock GTS strands the little cluster
// when every thread is hot — the inefficiency both the paper and HARS
// exploit; idle-pull closes part of that gap at the OS level. The
// bench x substrate grid is one SweepSpec.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Ablation: OS scheduler substrate at the max configuration\n");

  std::vector<AxisPoint> substrates;
  for (const bool idle_pull : {false, true}) {
    substrates.emplace_back(idle_pull ? "idle-pull" : "gts",
                            [idle_pull](ExperimentBuilder& b) {
                              GtsConfig config;
                              config.idle_pull = idle_pull;
                              b.os_scheduler(config);
                            });
  }

  SweepSpec spec;
  spec.name("ablation_os_scheduler")
      .base([](ExperimentBuilder& b) {
        // A dummy explicit target skips calibration: only the raw rate
        // and power of the maximum configuration matter here.
        b.variant("Baseline")
            .protocol(RunProtocol::kSteadyState)
            .duration(60 * kUsPerSec);
      })
      .benchmarks(all_parsec_benchmarks())
      .axis("substrate", std::move(substrates))
      .axis("target", {AxisPoint("max", [](ExperimentBuilder& b) {
               b.target(PerfTarget::around(1.0));
             })});

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("stock GTS vs idle-pull (EAS-style)");
  table.set_columns({"bench", "GTS rate", "GTS W", "pull rate", "pull W",
                     "rate gain", "raw hb/J gain"});
  for (ParsecBenchmark bench : all_parsec_benchmarks()) {
    const std::string_view code = parsec_code(bench);
    const auto value = [&](std::string_view substrate,
                           std::string_view column) {
      return record_number(sink.rows(),
                           {{"bench", code}, {"substrate", substrate}},
                           column);
    };
    const double gts_rate = value("gts", "avg_rate_hps");
    const double gts_power = value("gts", "avg_power_w");
    const double pull_rate = value("idle-pull", "avg_rate_hps");
    const double pull_power = value("idle-pull", "avg_power_w");
    const double rate_gain = gts_rate > 0.0 ? pull_rate / gts_rate : 0.0;
    const double hbj_gts = gts_power > 0.0 ? gts_rate / gts_power : 0.0;
    const double hbj_pull = pull_power > 0.0 ? pull_rate / pull_power : 0.0;
    table.add_row(parsec_code(bench),
                  {gts_rate, gts_power, pull_rate, pull_power, rate_gain,
                   hbj_gts > 0.0 ? hbj_pull / hbj_gts : 0.0});
  }
  table.print(std::cout);
  print_sweep_summary(std::cout, report);
  std::puts("Shape check: idle-pull raises raw throughput (little cores");
  std::puts("join in) and raw heartbeats-per-joule on most benchmarks —");
  std::puts("the §4.1.1 critique of stock GTS quantified.");
  return 0;
}
