// Synthetic stand-ins for the six heartbeat-instrumented PARSEC benchmarks
// the paper evaluates (§5.1.1): blackscholes (BL), bodytrack (BO), facesim
// (FA), ferret (FE), fluidanimate (FL) and swaptions (SW).
//
// Each profile encodes the properties the paper's narrative depends on:
//   BL  - data-parallel, *same* speed on big and little cores (measured
//         r = 1.0, vs. HARS's assumed r0 = 1.5 — the source of its
//         suboptimal BL adaptation), very stable workload, and a serial
//         no-heartbeat input-parsing phase (drives the case-6 story).
//   BO  - data-parallel per frame, noisy workload.
//   FA  - data-parallel, heavy frames, slow phases.
//   FE  - 6-stage pipeline (load / 4 work stages / out); vulnerable to the
//         chunk scheduler mapping whole stages onto the little cluster.
//   FL  - data-parallel per frame, pronounced phase behaviour.
//   SW  - data-parallel, extremely regular (paper shrinks the swaption
//         count per heartbeat to increase heartbeat frequency).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"

namespace hars {

enum class ParsecBenchmark { kBlackscholes, kBodytrack, kFacesim, kFerret, kFluidanimate, kSwaptions };

/// Two-letter code used in the paper's figures (BL, BO, FA, FE, FL, SW).
const char* parsec_code(ParsecBenchmark bench);
const char* parsec_name(ParsecBenchmark bench);

/// Inverse of parsec_code/parsec_name: accepts either spelling
/// ("SW" or "swaptions"); nullopt for any other name.
std::optional<ParsecBenchmark> parse_parsec_benchmark(std::string_view name);

/// All six benchmarks in figure order.
std::vector<ParsecBenchmark> all_parsec_benchmarks();

/// The four benchmarks used in the multi-application evaluation (§5.2.1).
std::vector<ParsecBenchmark> multiapp_parsec_benchmarks();

/// Instantiates the benchmark with `threads` worker threads (the paper runs
/// every benchmark with n = total core count = 8) and a deterministic seed.
std::unique_ptr<App> make_parsec_app(ParsecBenchmark bench, int threads = 8,
                                     std::uint64_t seed = 1);

/// True big:little performance ratio of the benchmark at equal frequency
/// (blackscholes: 1.0; others: 1.5). Used by tests and the r-sensitivity
/// ablation; HARS itself assumes r0 = 1.5 for everything, as in the paper.
double parsec_true_ratio(ParsecBenchmark bench);

}  // namespace hars
