// Oracle stack for property-based scenario fuzzing.
//
// run_fuzz_case executes one ReproCase against its variant/platform with
// every always-on correctness oracle armed:
//   - debug invariant audits forced on (ExperimentSpec::audit), so every
//     tick runs audit_tick / check_invariants even in release builds;
//   - AllocGuard (compiled in by default) turning hot-path allocations
//     into hard failures;
//   - any thrown exception (AuditError, ScenarioError, config errors,
//     ...) recorded as the failure message;
//   - optionally the differential oracle: the same spec re-run through
//     run_reference (oracle/reference_run.hpp: the reference tick and
//     GTS, with every manager search cross-checked against the
//     reference search) must produce a bit-identical result fingerprint.
// Repro cases with a non-empty `inject` instead evaluate the synthetic
// injected_failure predicate — the harness self-test and seeded
// known-bug fixtures go through exactly the same code path as real
// failures.
#pragma once

#include <string>

#include "exp/experiment.hpp"
#include "oracle/repro.hpp"

namespace hars {

struct FuzzCaseResult {
  bool failed = false;
  std::string message;  ///< First failing oracle's diagnostic.
};

/// One flat JSONL record of everything in a result — metrics, targets,
/// spans, trace-point contents and the static/final states; two results
/// are treated as identical iff their fingerprints match byte-for-byte
/// (format_number round-trips doubles, so this is bit-identity).
std::string result_fingerprint(const ExperimentResult& result);

/// Runs the oracle stack described above. `differential` adds the
/// reference-path identity check (twice the runtime).
FuzzCaseResult run_fuzz_case(const ReproCase& repro,
                             bool differential = true);

}  // namespace hars
