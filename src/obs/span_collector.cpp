#include "obs/span_collector.hpp"

#include <algorithm>
#include <chrono>

#include "util/alloc_guard.hpp"

namespace hars {
namespace obs {

namespace {

std::atomic<SpanCollector*> g_spans{nullptr};

std::int64_t steady_now_raw() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-relative base so span timestamps start near 0 and fit
// comfortably in Chrome's microsecond doubles.
const std::int64_t g_base_ns = steady_now_raw();

}  // namespace

std::int64_t now_ns() { return steady_now_raw() - g_base_ns; }

SpanCollector::SpanCollector(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  allocg::AllowScope allow("obs span ring allocation");
  ring_ = std::make_unique<SpanEvent[]>(capacity_);
}

std::vector<SpanEvent> SpanCollector::drain() const {
  const std::size_t used =
      std::min(next_.load(std::memory_order_relaxed), capacity_);
  return std::vector<SpanEvent>(ring_.get(), ring_.get() + used);
}

void install_span_collector(SpanCollector* collector) {
  g_spans.store(collector, std::memory_order_release);
}

SpanCollector* spans() { return g_spans.load(std::memory_order_relaxed); }

}  // namespace obs
}  // namespace hars
