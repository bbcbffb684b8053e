// SpanCollector: a pre-allocated ring of trace spans (one per step()
// tick and one per quiet span that SimEngine::run_until times), drained
// into Chrome trace-event JSON by obs::write_chrome_trace. push() is
// lock-free and allocation-free: one fetch_add plus six stores; once the
// ring is full it keeps the first `capacity` spans and counts every
// later one as dropped rather than growing.
//
// now_ns() lives out-of-line in span_collector.cpp, so no wall-clock
// token appears inside a HARS_HOT body (hars_lint's no-wallclock-rand
// rule stays intact).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace hars {
namespace obs {

/// Process-relative monotonic time in ns. Cold-callable from anywhere.
std::int64_t now_ns();

/// One completed span. `name`/`cat` must be string literals (the
/// collector stores the pointers).
struct SpanEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   ///< Start, process-relative.
  std::int64_t dur_ns = 0;
  std::int64_t ticks = 0;   ///< Ticks the span ran; > 0 writes "args":{"ticks":N}.
  std::uint32_t tid = 0;    ///< obs::thread_tag() of the emitting thread.
};

class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity);

  /// Hot path. Drops (and counts) when the ring is full.
  void push(const SpanEvent& event) {
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring_[slot] = event;
  }

  /// The recorded spans, in push order. Only call after all writers are
  /// quiescent (e.g. after the run, before writing the trace file).
  std::vector<SpanEvent> drain() const;

  /// Spans pushed after the ring filled up (not in drain()).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<SpanEvent[]> ring_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Installs `collector` as the process-wide span sink (nullptr to
/// uninstall). The caller keeps ownership and must uninstall before
/// destroying it. Cold.
void install_span_collector(SpanCollector* collector);

/// The installed collector, or nullptr. Hot-path safe (one relaxed load).
SpanCollector* spans();

}  // namespace obs
}  // namespace hars
