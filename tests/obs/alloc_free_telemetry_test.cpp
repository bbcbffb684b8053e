// The hot-path write functions must be allocation-free: once a thread
// is attached and the catalog is registered, counter_add / hist_observe
// / now_ns / span push run under a strict AllocGuard with zero
// allocations (not even declared ones) and zero violations.
#include <gtest/gtest.h>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/span_collector.hpp"
#include "util/alloc_guard.hpp"

namespace hars {
namespace obs {
namespace {

TEST(AllocFreeTelemetry, HotWritesAllocateNothing) {
  MetricsRegistry::instance().set_enabled(true);
  const Catalog& cat = catalog();  // Registered at static init.
  ensure_thread_registered();      // Shard allocation happens here, cold.
  SpanCollector spans(1024);       // Ring pre-allocated here.
  install_span_collector(&spans);

  {
    hars::AllocGuard guard("telemetry hot writes");
    for (int i = 0; i < 10000; ++i) {
      counter_add(cat.ticks);
      counter_add(cat.search_moves, 3);
      hist_observe(cat.tabu_ring_occupancy, static_cast<double>(i % 40));
      hist_observe(cat.sweep_case_run_ms, 0.25 * i);
      const std::int64_t start = now_ns();
      hist_observe(cat.step_ns, static_cast<double>(i));
      hist_observe(cat.quiet_tick_ns, 0.5 * i);
      SpanEvent event;
      event.name = "quiet_span";
      event.cat = "tick";
      event.ts_ns = start;
      event.dur_ns = now_ns() - start;
      event.ticks = i;
      event.tid = thread_tag();
      spans.push(event);
    }
    EXPECT_EQ(guard.allocations(), 0u) << "hot write path allocated";
    EXPECT_EQ(guard.violations(), 0u);
  }

  install_span_collector(nullptr);
  MetricsRegistry::instance().set_enabled(false);
  MetricsRegistry::instance().detach_current_thread();
}

TEST(AllocFreeTelemetry, DetachedWritesAllocateNothing) {
  // Telemetry off: the same writes must be pure no-ops.
  MetricsRegistry::instance().set_enabled(false);
  ensure_thread_registered();  // Detaches under a disabled registry.
  const Catalog& cat = catalog();
  {
    hars::AllocGuard guard("telemetry disabled writes");
    for (int i = 0; i < 10000; ++i) {
      counter_add(cat.ticks);
      hist_observe(cat.sweep_case_run_ms, 1.0);
      hist_observe(cat.step_ns, 1.0);
      hist_observe(cat.quiet_tick_ns, 1.0);
    }
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_EQ(guard.violations(), 0u);
  }
}

}  // namespace
}  // namespace obs
}  // namespace hars
