// Regenerates Figures 5.5 / 5.6 / 5.7: behaviour graphs of case 4 (BO+FL)
// under CONS-I, MP-HARS-I and MP-HARS-E. For each app the trace records
// HPS, allocated big/little core count, target window and cluster
// frequencies per heartbeat. The three versions run as one SweepSpec
// (keep_results retains the full traces); summaries are printed and the
// full series are written to CSV next to the binary.
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace hars;

void dump_trace(const std::string& fig, const std::string& version,
                const std::vector<ParsecBenchmark>& benches,
                const ExperimentResult& result) {
  for (std::size_t ai = 0; ai < benches.size(); ++ai) {
    const std::string path =
        fig + "_" + version + "_" + parsec_code(benches[ai]) + ".csv";
    CsvWriter csv(path);
    csv.header({"hb_index", "hps", "b_core", "l_core", "target_min",
                "target_max", "b_freq_ghz", "l_freq_ghz"});
    for (const TracePoint& p : result.apps[ai].trace) {
      csv.row({static_cast<double>(p.hb_index), p.hps,
               static_cast<double>(p.big_cores),
               static_cast<double>(p.little_cores), result.apps[ai].target.min,
               result.apps[ai].target.max, p.big_freq_ghz, p.little_freq_ghz});
    }
    std::printf("  wrote %s (%zu points)\n", path.c_str(),
                result.apps[ai].trace.size());
  }
}

void summarize(const std::string& label,
               const std::vector<ParsecBenchmark>& benches,
               const ExperimentResult& result) {
  ReportTable table(label);
  table.set_columns({"app", "avg HPS", "target", "in-window %", "avg B_Core",
                     "avg L_Core", "avg B_Freq", "avg L_Freq"});
  for (std::size_t ai = 0; ai < benches.size(); ++ai) {
    OnlineStats hps, bc, lc, bf, lf;
    for (const TracePoint& p : result.apps[ai].trace) {
      hps.add(p.hps);
      bc.add(p.big_cores);
      lc.add(p.little_cores);
      bf.add(p.big_freq_ghz);
      lf.add(p.little_freq_ghz);
    }
    table.add_text_row(
        {parsec_code(benches[ai]), format_value(hps.mean()),
         format_value(result.apps[ai].target.avg()),
         format_value(100.0 * result.apps[ai].metrics.in_window_fraction),
         format_value(bc.mean()), format_value(lc.mean()),
         format_value(bf.mean()), format_value(lf.mean())});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hars;
  SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Figures 5.5-5.7 reproduction: behaviour of case 4 (BO+FL)\n");
  const std::vector<ParsecBenchmark> benches = multiapp_cases()[3];

  const std::vector<std::pair<std::string, std::string>> figures{
      {"fig5_5", "CONS-I"}, {"fig5_6", "MP-HARS-I"}, {"fig5_7", "MP-HARS-E"}};

  SweepSpec spec;
  spec.name("fig5_5_6_7")
      .base([benches](ExperimentBuilder& b) {
        b.apps(benches).duration(150 * kUsPerSec);
      })
      .variants({"CONS-I", "MP-HARS-I", "MP-HARS-E"});

  options.keep_results = true;  // The figures need the full traces.
  SweepEngine engine(options);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  for (std::size_t i = 0; i < figures.size(); ++i) {
    const auto& [fig, version] = figures[i];
    const ExperimentResult& result = report.outcome(i).result;
    summarize("Figure 5." + std::to_string(5 + i) + ": " + version, benches,
              result);
    dump_trace(fig, version, benches, result);
  }

  print_sweep_summary(std::cout, report);
  std::puts("Paper shape check: under CONS-I, FL overshoots its target while");
  std::puts("BO achieves it (shared state cannot decrease); MP-HARS keeps");
  std::puts("both apps near their windows; MP-HARS-E settles on a cheaper");
  std::puts("configuration than MP-HARS-I.");
  return 0;
}
