// Regenerates Table 4.3: the state & freeze decision table of the
// interference-aware adaptation policy. The status x status x frozen grid
// is a pure-parameter SweepSpec with a custom case runner.
#include <iostream>
#include <vector>

#include "exp/report.hpp"
#include "mphars/freeze_policy.hpp"
#include "sweep/sweep_cli.hpp"
#include "sweep/sweep_engine.hpp"

namespace {

using namespace hars;

const std::vector<PerfStatus> kStatuses{
    PerfStatus::kUnderperf, PerfStatus::kAchieve, PerfStatus::kOverperf};

PerfStatus status_from_label(std::string_view label) {
  for (PerfStatus s : kStatuses) {
    if (label == perf_status_name(s)) return s;
  }
  return PerfStatus::kAchieve;
}

std::vector<AxisPoint> status_axis() {
  std::vector<AxisPoint> points;
  for (PerfStatus s : kStatuses) points.emplace_back(perf_status_name(s));
  return points;
}

std::vector<Record> run_decision_case(const SweepCase& sweep_case) {
  const PerfStatus app = status_from_label(sweep_case.label("app"));
  const PerfStatus others = status_from_label(sweep_case.label("others"));
  const bool frozen = sweep_case.label("frozen") == "FREEZE";
  const InterferenceDecision d = decide_interference(app, others, frozen);
  Record out;
  out.set("state_decision", state_decision_name(d.state));
  out.set("freeze_decision", freeze_decision_name(d.freeze));
  return {out};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hars;
  const SweepOptions options = sweep_options_from_cli(argc, argv);

  SweepSpec spec;
  spec.name("table4_3")
      .axis("app", status_axis())
      .axis("others", status_axis())
      .axis("frozen", {AxisPoint("FREEZE"), AxisPoint("UNFREEZE")})
      .case_runner(run_decision_case);

  TableSink sink;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  if (report_sweep_failures(std::cerr, report) > 0) return 1;

  ReportTable table("Table 4.3 reproduction: state & freeze decisions");
  table.set_columns(
      {"AppInPeriod", "TheOthers", "FrozenState", "StateDecision", "FreezeDecision"});
  for (const Record& row : sink.rows()) {
    table.add_text_row({std::string(row.text("app")),
                        std::string(row.text("others")),
                        std::string(row.text("frozen")),
                        std::string(row.text("state_decision")),
                        std::string(row.text("freeze_decision"))});
  }
  table.print(std::cout);
  return 0;
}
