// SweepEngine: executes an expanded SweepSpec on --jobs threads
// (util/fan_out.hpp's fan_out_each), or on a shared TaskPool.
//
// Each case runs as one item: build an ExperimentBuilder (spec base
// mutator, then the case's axis mutators, then — in SeedMode::kDerived —
// the case's coordinate-derived seed), run the experiment, and flatten
// the result into one Record per app. Campaigns with a custom CaseRunner
// substitute their own evaluation; either way the engine prepends the
// case coordinates to every record.
//
// Results are handed to the attached ResultSinks strictly in case order
// (a completion cursor releases the ready prefix), so sink output is
// byte-identical regardless of worker count; per-case metrics are
// bit-identical because cases share no mutable state and seeds derive
// from coordinates, not scheduling. Wall-clock numbers live only on the
// CaseOutcome / SweepReport, never in sink records.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_spec.hpp"

namespace hars {

class TaskPool;

/// Live control word a long-running campaign polls between cases; the
/// hars_simd daemon flips it on SIGTERM (drain) or a client cancel.
enum class SweepControl : int {
  kRun = 0,    ///< Keep scheduling cases.
  kDrain = 1,  ///< Finish in-flight cases; unstarted ones are not run.
  kCancel = 2, ///< Same scheduling behaviour, reported as cancelled.
};

struct SweepOptions {
  /// Threads that run cases, the calling thread included; 1 runs inline
  /// on the calling thread, 0 means hardware_threads() (util/fan_out.hpp).
  int jobs = 1;
  /// Keep each case's full ExperimentResult (traces can be large; turn
  /// off for huge campaigns that only need the sink records).
  bool keep_results = true;
  /// Run the cases on this externally owned pool instead (the daemon
  /// shares one pool across concurrent campaigns); run_each returns when
  /// this campaign's cases finished, whatever else the pool runs.
  /// `jobs` is ignored when set.
  TaskPool* shared_pool = nullptr;
  /// Optional external control word (values of SweepControl), polled
  /// before each case starts. nullptr = run to completion. A case that
  /// observes kDrain/kCancel before starting is *not run*: its outcome
  /// carries error "drained"/"cancelled", it emits no records, and it
  /// permanently stalls the emission cursor so the sink output stays a
  /// clean contiguous prefix of the full campaign (the resume contract).
  const std::atomic<int>* control = nullptr;
  /// Skip cases with index < start_case (resume of a drained campaign:
  /// expansion is a pure function of the spec, so indices — and the
  /// skipped cases' would-be records — are stable across processes).
  /// Skipped cases emit nothing and report error "skipped".
  std::size_t start_case = 0;
};

struct CaseOutcome {
  SweepCase sweep_case;
  ExperimentResult result;     ///< Default runner + keep_results only.
  std::vector<Record> records; ///< What the sinks received.
  double wall_ms = 0.0;
  std::string error;           ///< Non-empty when the case threw.

  bool ok() const { return error.empty(); }
};

struct SweepReport {
  std::string campaign;
  std::vector<CaseOutcome> outcomes;  ///< In case order.
  int jobs = 1;
  double wall_ms = 0.0;  ///< Whole-campaign wall clock.
  std::size_t failed = 0;
  /// "complete", "drained" or "cancelled" (see SweepOptions::control).
  std::string status = "complete";
  /// Cases whose records reached the sinks: the contiguous prefix
  /// [start_case, emitted_through). Equals outcomes.size() on a complete
  /// run; a drained campaign resumes with start_case = emitted_through.
  std::size_t emitted_through = 0;

  double cases_per_sec() const {
    return wall_ms > 0.0 ? 1e3 * static_cast<double>(outcomes.size()) / wall_ms
                         : 0.0;
  }
  const CaseOutcome& outcome(std::size_t i) const { return outcomes.at(i); }
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  /// Attaches a non-owning sink; records stream to it in case order.
  SweepEngine& add_sink(ResultSink& sink);

  SweepReport run(const SweepSpec& spec);

  int jobs() const { return options_.jobs; }

 private:
  SweepOptions options_;
  std::vector<ResultSink*> sinks_;
};

/// The engine's default evaluation of one case, exposed for reuse (the
/// hars_sim CLI and tests): applies base + axis mutators (+ derived seed),
/// runs the experiment, returns one metric Record per app. Coordinates
/// are NOT included — the engine prepends them.
std::vector<Record> run_experiment_case(const SweepSpec& spec,
                                        const SweepCase& sweep_case,
                                        ExperimentResult* result_out);

}  // namespace hars
