#include "obs/telemetry.hpp"

#include <cstddef>
#include <string>

#include "obs/writers.hpp"
#include "util/alloc_guard.hpp"

namespace hars {
namespace obs {

namespace {

/// Span ring slots of a traced session; later spans count as dropped.
constexpr std::size_t kSpanCapacity = 1 << 16;

std::string scope_metric_name(const char* scope) {
  std::string name = "alloc.scope.";
  for (const char* p = scope; *p != '\0'; ++p) {
    const char c = *p;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (ok) {
      name.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      name.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      name.push_back('_');
    }
  }
  return name;
}

}  // namespace

void publish_alloc_scope_gauges() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (!reg.enabled()) return;
  reg.gauge_set(
      reg.register_gauge("alloc.thread_total",
                         "Allocations ever made on the session thread"),
      static_cast<double>(allocg::thread_allocs()));
  reg.gauge_set(
      reg.register_gauge(
          "alloc.thread_violations",
          "Undeclared allocations under AllocGuard on the session thread"),
      static_cast<double>(allocg::thread_violations()));
  for (const allocg::ScopeCount& scope : allocg::thread_scope_counts()) {
    reg.gauge_set(
        reg.register_gauge(scope_metric_name(scope.name),
                           "Allocations attributed to this AllowScope"),
        static_cast<double>(scope.allocs));
  }
}

TelemetrySession::TelemetrySession(TelemetryConfig config)
    : config_(std::move(config)) {
  if (!config_.enabled) return;
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.reset();
  reg.set_enabled(true);
  ensure_thread_registered();
  if (!config_.trace_json.empty()) {
    spans_ = std::make_unique<SpanCollector>(kSpanCapacity);
    install_span_collector(spans_.get());
  }
  active_ = true;
}

TelemetrySession::~TelemetrySession() { finish(); }

void TelemetrySession::finish() {
  if (!active_ || finished_) return;
  finished_ = true;
  publish_alloc_scope_gauges();
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (spans_ != nullptr) {
    install_span_collector(nullptr);
    reg.gauge_set(
        reg.register_gauge("obs.spans_dropped",
                           "Trace spans pushed after the span ring filled"),
        static_cast<double>(spans_->dropped()));
  }
  snapshot_ = reg.take_snapshot();
  if (!config_.metrics_jsonl.empty()) {
    write_metrics_jsonl_file(config_.metrics_jsonl, snapshot_);
  }
  if (!config_.metrics_csv.empty()) {
    write_metrics_csv_file(config_.metrics_csv, snapshot_);
  }
  if (!config_.prometheus.empty()) {
    write_prometheus_file(config_.prometheus, snapshot_);
  }
  if (spans_ != nullptr) {
    write_chrome_trace_file(config_.trace_json, spans_->drain());
  }
  reg.set_enabled(false);
}

}  // namespace obs
}  // namespace hars
