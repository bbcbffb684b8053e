#include "sweep/sweep_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <utility>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/fan_out.hpp"

namespace hars {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Case coordinates as the leading columns of every sink record.
Record coord_prefix(const SweepCase& sweep_case, SeedMode mode) {
  Record prefix;
  prefix.set("case", static_cast<std::int64_t>(sweep_case.index));
  for (const CaseCoord& coord : sweep_case.coords) {
    if (!std::isnan(coord.number)) {
      prefix.set(coord.axis, coord.number);
    } else {
      prefix.set(coord.axis, coord.label);
    }
  }
  if (mode == SeedMode::kDerived) {
    // Text cell: a 64-bit seed does not survive the numeric cells' double
    // representation.
    prefix.set("seed", std::to_string(sweep_case.seed));
  }
  return prefix;
}

Record merge(const Record& prefix, const Record& columns) {
  Record out = prefix;
  for (const RecordCell& cell : columns.cells()) {
    if (cell.numeric) {
      out.set(cell.key, cell.number);
    } else {
      out.set(cell.key, cell.text);
    }
  }
  return out;
}

}  // namespace

std::vector<Record> run_experiment_case(const SweepSpec& spec,
                                        const SweepCase& sweep_case,
                                        ExperimentResult* result_out) {
  ExperimentBuilder builder;
  if (spec.base_mutator()) spec.base_mutator()(builder);
  for (const BuilderMutator& mutate : sweep_case.mutators) mutate(builder);
  if (spec.seeding() == SeedMode::kDerived) builder.seed(sweep_case.seed);

  const ExperimentResult result = builder.build().run();

  std::vector<Record> records;
  records.reserve(result.apps.size());
  for (std::size_t i = 0; i < result.apps.size(); ++i) {
    const AppRunResult& app = result.apps[i];
    Record r;
    r.set("app", app.label);
    r.set("app_index", static_cast<std::int64_t>(i));
    r.set("target_min", app.target.min);
    r.set("target_max", app.target.max);
    r.set("norm_perf", app.metrics.norm_perf);
    r.set("avg_rate_hps", app.metrics.avg_rate_hps);
    r.set("avg_power_w", app.metrics.avg_power_w);
    r.set("perf_per_watt", app.metrics.perf_per_watt);
    r.set("manager_cpu_pct", app.metrics.manager_cpu_pct);
    r.set("heartbeats", app.metrics.heartbeats);
    r.set("in_window_fraction", app.metrics.in_window_fraction);
    r.set("energy_j", app.metrics.energy_j);
    r.set("energy_per_beat_j", app.metrics.energy_per_beat_j);
    r.set("adaptations", result.adaptations);
    records.push_back(std::move(r));
  }
  if (result_out != nullptr) *result_out = result;
  return records;
}

SweepEngine::SweepEngine(SweepOptions options) : options_(options) {
  if (options_.jobs == 0) options_.jobs = hardware_threads();
  if (options_.jobs < 1) options_.jobs = 1;
}

SweepEngine& SweepEngine::add_sink(ResultSink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

SweepReport SweepEngine::run(const SweepSpec& spec) {
  const auto campaign_start = std::chrono::steady_clock::now();
  std::vector<SweepCase> cases = spec.expand();

  const int jobs = options_.shared_pool != nullptr
                       ? options_.shared_pool->worker_count()
                       : options_.jobs;
  obs::gauge_set(obs::catalog().sweep_jobs, static_cast<double>(jobs));

  SweepReport report;
  report.campaign = spec.campaign();
  report.jobs = jobs;
  report.outcomes.resize(cases.size());

  // Emission state machine per case. kReady cases release through the
  // cursor in order; a kBlocked case (drained/cancelled before it ran)
  // stalls the cursor permanently, so sink output is always a clean
  // contiguous prefix of the full campaign — the resume contract.
  enum : char { kPending = 0, kReady = 1, kBlocked = 2 };
  std::vector<char> state(cases.size(), kPending);
  /// Completion instant of each case, for the emit-wait histogram.
  std::vector<std::chrono::steady_clock::time_point> finished(cases.size());
  std::mutex emit_mutex;      // Guards state[], emit cursor, and the sinks.
  std::size_t emit_cursor = 0;
  std::atomic<int> observed_stop{0};  ///< Last control word that dropped a case.

  const auto emit_ready_locked = [&] {
    while (emit_cursor < state.size() && state[emit_cursor] == kReady) {
      CaseOutcome& ready = report.outcomes[emit_cursor];
      obs::hist_observe(obs::catalog().sweep_case_emit_ms,
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() -
                            finished[emit_cursor])
                            .count());
      // A throwing sink is captured as that case's error — it must not
      // escape the case or stall the cursor.
      try {
        for (const Record& record : ready.records) {
          for (ResultSink* sink : sinks_) sink->write(record);
        }
      } catch (const std::exception& e) {
        if (ready.error.empty()) {
          ready.error = std::string("sink write failed: ") + e.what();
        }
      } catch (...) {
        if (ready.error.empty()) ready.error = "sink write failed";
      }
      ++emit_cursor;
    }
  };

  // Resume: the [0, start_case) prefix was emitted by a previous run of
  // the same spec (indices are a pure function of the spec), so it is
  // marked ready with no records and the cursor swallows it.
  const std::size_t first_case = std::min(options_.start_case, cases.size());
  {
    std::lock_guard<std::mutex> lock(emit_mutex);
    for (std::size_t i = 0; i < first_case; ++i) {
      report.outcomes[i].sweep_case = cases[i];
      report.outcomes[i].error = "skipped";
      finished[i] = campaign_start;
      state[i] = kReady;
    }
    emit_ready_locked();
  }

  const auto run_case = [&](std::size_t i) {
    // Case threads attach here (cold, before any guarded experiment
    // code); when telemetry is off this keeps them detached.
    obs::ensure_thread_registered();
    CaseOutcome outcome;
    outcome.sweep_case = cases[i];
    char outcome_state = kReady;
    const int control =
        options_.control != nullptr
            ? options_.control->load(std::memory_order_acquire)
            : static_cast<int>(SweepControl::kRun);
    if (control != static_cast<int>(SweepControl::kRun)) {
      // Not run: in-flight cases finish, this one never starts.
      outcome.error = control == static_cast<int>(SweepControl::kCancel)
                          ? "cancelled"
                          : "drained";
      outcome_state = kBlocked;
      observed_stop.store(control, std::memory_order_relaxed);
    } else {
      const auto case_start = std::chrono::steady_clock::now();
      obs::hist_observe(obs::catalog().sweep_case_queue_ms,
                        std::chrono::duration<double, std::milli>(
                            case_start - campaign_start)
                            .count());
      try {
        std::vector<Record> columns;
        if (spec.runner()) {
          columns = spec.runner()(cases[i]);
        } else {
          columns = run_experiment_case(
              spec, cases[i],
              options_.keep_results ? &outcome.result : nullptr);
        }
        const Record prefix = coord_prefix(cases[i], spec.seeding());
        outcome.records.reserve(columns.size());
        for (const Record& c : columns) {
          outcome.records.push_back(merge(prefix, c));
        }
      } catch (const std::exception& e) {
        outcome.error = e.what();
      } catch (...) {
        outcome.error = "unknown error";
      }
      outcome.wall_ms = elapsed_ms(case_start);
      obs::counter_add(obs::catalog().sweep_cases);
      obs::hist_observe(obs::catalog().sweep_case_run_ms, outcome.wall_ms);
    }

    // Publish, then release the completed prefix to the sinks in order.
    std::lock_guard<std::mutex> lock(emit_mutex);
    report.outcomes[i] = std::move(outcome);
    state[i] = outcome_state;
    finished[i] = std::chrono::steady_clock::now();
    emit_ready_locked();
  };

  const auto body = [&](std::size_t k) { run_case(first_case + k); };
  const std::size_t to_run = cases.size() - first_case;
  options_.shared_pool != nullptr
      ? options_.shared_pool->run_each(to_run, body)
      : fan_out_each(to_run, body, options_.jobs);

  for (ResultSink* sink : sinks_) sink->flush();
  for (const CaseOutcome& outcome : report.outcomes) {
    // Control-dropped and resume-skipped cases are not failures: they
    // are accounted through status / emitted_through instead.
    if (!outcome.ok() && outcome.error != "skipped" &&
        outcome.error != "drained" && outcome.error != "cancelled") {
      ++report.failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(emit_mutex);
    report.emitted_through = emit_cursor;
  }
  const int stop = observed_stop.load(std::memory_order_relaxed);
  report.status = stop == static_cast<int>(SweepControl::kCancel)
                      ? "cancelled"
                      : stop == static_cast<int>(SweepControl::kDrain)
                            ? "drained"
                            : "complete";
  report.wall_ms = elapsed_ms(campaign_start);
  return report;
}

}  // namespace hars
