// Layer microbenchmarks on frozen state: each times a batch of calls to
// one public layer function between a single pair of clock reads, so the
// resolution is far finer than the call being measured.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// Adds every batch metric (ns per call, plus the exhaustive search's
/// candidate count) to `out`.
void run_batches(std::map<std::string, double>& out);

}  // namespace perfbench
