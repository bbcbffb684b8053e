// SpanCollector overflow: a full ring keeps the first `capacity` spans
// in push order and counts every later push as dropped.
#include "obs/span_collector.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hars {
namespace obs {
namespace {

TEST(SpanCollector, FullRingKeepsTheFirstSpansAndCountsTheRest) {
  SpanCollector collector(2);
  for (int i = 0; i < 5; ++i) {
    SpanEvent event;
    event.name = "step";
    event.cat = "tick";
    event.ts_ns = i;
    collector.push(event);
  }
  const std::vector<SpanEvent> kept = collector.drain();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].ts_ns, 0);
  EXPECT_EQ(kept[1].ts_ns, 1);
  EXPECT_EQ(collector.dropped(), 3u);
}

}  // namespace
}  // namespace obs
}  // namespace hars
