// Regenerates Table 3.1: thread assignment to the big and little clusters
// across the four regimes, for the Exynos-like machine and r = 1.5. The
// two parameter sweeps (thread count at fixed r, then r at fixed thread
// count) are pure-parameter SweepSpecs with a custom case runner — no
// simulation involved.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/thread_assignment.hpp"
#include "exp/report.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

namespace {

using namespace hars;

constexpr int kBigCores = 4;
constexpr int kLittleCores = 4;

std::vector<Record> run_assignment_case(const SweepCase& sweep_case) {
  const int t = static_cast<int>(sweep_case.number("t"));
  const double r = sweep_case.number("r");
  const ThreadAssignment a = assign_threads(t, kBigCores, kLittleCores, r);
  const double rcb = r * kBigCores;
  const char* regime = t <= kBigCores                   ? "0<T<=CB"
                       : static_cast<double>(t) <= rcb  ? "CB<T<=rCB"
                       : static_cast<double>(t) <= rcb + kLittleCores
                           ? "rCB<T<=rCB+CL"
                           : "rCB+CL<T";
  Record out;
  out.set("regime", regime);
  out.set("tb", static_cast<std::int64_t>(a.tb));
  out.set("tl", static_cast<std::int64_t>(a.tl));
  out.set("cb_used", static_cast<std::int64_t>(a.cb_used));
  out.set("cl_used", static_cast<std::int64_t>(a.cl_used));
  return {out};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);
  std::puts("Table 3.1 reproduction: thread assignment (r >= 1)");
  std::puts("Rows show (T_B, T_L, C_B,U, C_L,U) per regime for C_B=C_L=4.\n");

  SweepSpec by_threads;
  std::vector<double> thread_counts;
  for (int t = 1; t <= 16; ++t) thread_counts.push_back(t);
  by_threads.name("table3_1_threads")
      .values("t", thread_counts, nullptr)
      .values("r", {1.5}, nullptr)
      .case_runner(run_assignment_case);

  TableSink threads_sink;
  SweepEngine threads_engine(options);
  threads_engine.add_sink(threads_sink);
  const SweepReport threads_report = threads_engine.run(by_threads);
  if (report_sweep_failures(std::cerr, threads_report) > 0) return 1;

  ReportTable table("Thread assignment, C_B = C_L = 4, r = 1.5");
  table.set_columns({"T", "regime", "T_B", "T_L", "C_B,U", "C_L,U"});
  for (const Record& row : threads_sink.rows()) {
    table.add_text_row({std::string(row.text("t")),
                        std::string(row.text("regime")),
                        std::string(row.text("tb")),
                        std::string(row.text("tl")),
                        std::string(row.text("cb_used")),
                        std::string(row.text("cl_used"))});
  }
  table.print(std::cout);

  SweepSpec by_ratio;
  by_ratio.name("table3_1_ratio")
      .values("t", {8.0}, nullptr)
      .values("r", {0.5, 0.8, 1.0, 1.2, 1.5, 1.85, 2.0, 3.0}, nullptr)
      .case_runner(run_assignment_case);

  TableSink ratio_sink;
  SweepEngine ratio_engine(options);
  ratio_engine.add_sink(ratio_sink);
  const SweepReport ratio_report = ratio_engine.run(by_ratio);
  if (report_sweep_failures(std::cerr, ratio_report) > 0) return 1;

  ReportTable sweep("Assignment sweep over r (T = 8, C_B = C_L = 4)");
  sweep.set_columns({"r", "T_B", "T_L", "C_B,U", "C_L,U"});
  for (const Record& row : ratio_sink.rows()) {
    sweep.add_text_row({format_value(row.number("r")),
                        std::string(row.text("tb")),
                        std::string(row.text("tl")),
                        std::string(row.text("cb_used")),
                        std::string(row.text("cl_used"))});
  }
  sweep.print(std::cout);
  return 0;
}
