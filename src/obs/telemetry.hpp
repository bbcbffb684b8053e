// TelemetrySession: run-scoped telemetry lifecycle. Construction zeroes
// and arms the registry (so the dump covers this run only), attaches the
// calling thread and installs a span collector when a trace file was
// requested; finish() (or the destructor) publishes the alloc_guard
// per-scope totals and the span ring's drop count as gauges, snapshots
// the registry and writes every configured sink, then disarms. The
// session never throws out of finish(): sink I/O errors go to stderr —
// telemetry must not change a run's outcome.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span_collector.hpp"

namespace hars {
namespace obs {

struct TelemetryConfig {
  bool enabled = false;
  // Output paths; empty = sink disabled.
  std::string metrics_jsonl;
  std::string metrics_csv;
  std::string prometheus;
  std::string trace_json;
};

class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryConfig config);
  ~TelemetrySession();
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Publishes alloc-scope gauges (and obs.spans_dropped when tracing),
  /// snapshots, writes all configured sinks and disables telemetry.
  /// Idempotent; called by the destructor.
  void finish();

  /// The snapshot finish() took (empty before finish / when disabled).
  const MetricsSnapshot& snapshot() const { return snapshot_; }

  bool active() const { return active_; }

 private:
  TelemetryConfig config_;
  std::unique_ptr<SpanCollector> spans_;
  MetricsSnapshot snapshot_;
  bool active_ = false;
  bool finished_ = false;
};

/// Registers (idempotently) and sets gauges "alloc.scope.<name>" from
/// allocg::thread_scope_counts() of the calling thread, plus
/// "alloc.thread_total" / "alloc.thread_violations". Cold; called by
/// TelemetrySession::finish() and available to tools directly.
void publish_alloc_scope_gauges();

}  // namespace obs
}  // namespace hars
