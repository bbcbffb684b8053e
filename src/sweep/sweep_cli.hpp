// Shared command-line plumbing for sweep-driven binaries: every figure /
// ablation bench accepts `--jobs N` (0 = hardware_threads(); also
// honoured via the HARS_JOBS environment variable, flag wins), rejects
// every other flag, and prints a one-line campaign summary.
#pragma once

#include <iosfwd>

#include "sweep/sweep_engine.hpp"

namespace hars {
namespace flags {
class Parser;
}  // namespace flags

/// Declares `--jobs N` on `cli`, bound to `*jobs`, after seeding `*jobs`
/// from the HARS_JOBS environment variable (so the flag wins).
void declare_jobs_flag(flags::Parser& cli, int* jobs);

/// SweepOptions for a parsed --jobs value (0 = hardware_threads());
/// negative values clamp to 1.
SweepOptions sweep_options_for_jobs(int jobs);

/// The whole command line of a binary whose only flag is --jobs.
/// Defaults to 1 (serial, the reproducible reference). Prints usage and
/// exits 0 on --help; prints one line and exits 2 on any other argument.
SweepOptions sweep_options_from_cli(int argc, char** argv);

/// "campaign 'fig5_3': 60 cases, 4 jobs, 1234.5 ms (48.6 cases/s), 0 failed"
void print_sweep_summary(std::ostream& out, const SweepReport& report);

/// Prints every failed case's coordinates and error to `out`; returns the
/// number of failures (bench binaries exit non-zero on any).
std::size_t report_sweep_failures(std::ostream& out,
                                  const SweepReport& report);

}  // namespace hars
