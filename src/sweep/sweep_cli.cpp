#include "sweep/sweep_cli.hpp"

#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <string>

#include "util/flags.hpp"

namespace hars {

void declare_jobs_flag(flags::Parser& cli, int* jobs) {
  if (const char* env = std::getenv("HARS_JOBS")) *jobs = std::atoi(env);
  cli.flag("--jobs N", jobs,
           "sweep pool workers (default 1; 0 = hardware threads;\n"
           "also read from HARS_JOBS)");
}

SweepOptions sweep_options_for_jobs(int jobs) {
  SweepOptions options;
  options.jobs = jobs < 0 ? 1 : jobs;
  return options;
}

SweepOptions sweep_options_from_cli(int argc, char** argv) {
  int jobs = SweepOptions{}.jobs;
  flags::Parser cli(std::filesystem::path(argv[0]).filename().string(),
                    "[--jobs N]");
  declare_jobs_flag(cli, &jobs);
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    std::exit(flags::exit_code(status));
  }
  return sweep_options_for_jobs(jobs);
}

void print_sweep_summary(std::ostream& out, const SweepReport& report) {
  out << "campaign '" << report.campaign << "': " << report.outcomes.size()
      << " cases, " << report.jobs << " job" << (report.jobs == 1 ? "" : "s")
      << ", " << format_number(report.wall_ms) << " ms ("
      << format_number(report.cases_per_sec()) << " cases/s), "
      << report.failed << " failed\n";
}

std::size_t report_sweep_failures(std::ostream& out,
                                  const SweepReport& report) {
  for (const CaseOutcome& outcome : report.outcomes) {
    if (outcome.ok()) continue;
    std::string where;
    for (const CaseCoord& coord : outcome.sweep_case.coords) {
      if (!where.empty()) where += ' ';
      where += coord.axis + '=' + coord.label;
    }
    out << "case " << outcome.sweep_case.index << " (" << where
        << ") failed: " << outcome.error << '\n';
  }
  return report.failed;
}

}  // namespace hars
