#include "core/search_scratch.hpp"

#include <cassert>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"

namespace hars {

void SearchScratch::begin_tick(const StateSpace& space) {
  const int nb = space.max_big_cores + 1;
  const int nl = space.max_little_cores + 1;
  const int nbf = space.num_big_freqs;
  const int nlf = space.num_little_freqs;
  assert(nb > 0 && nl > 0 && nbf > 0 && nlf > 0);
  const auto slots =
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(nl) *
      static_cast<std::size_t>(nbf) * static_cast<std::size_t>(nlf);
  if (slots > unit_time_.size() || nl != stride_l_ || nbf != stride_bf_ ||
      nlf != stride_lf_) {
    // One-time (per state-space shape) growth of the memo tables.
    allocg::AllowScope allow("SearchScratch memo-table growth");
    stride_l_ = nl;
    stride_bf_ = nbf;
    stride_lf_ = nlf;
    unit_time_.assign(slots, Entry{});
    power_.assign(slots, Entry{});
    gen_ = 0;
  }
  if (++gen_ == 0) {
    // Generation wrap (after ~4G epochs): wipe the stamps so no stale
    // entry can alias the restarted counter.
    unit_time_.assign(unit_time_.size(), Entry{});
    power_.assign(power_.size(), Entry{});
    gen_ = 1;
  }
}

void SearchScratch::flush_counters() {
  const obs::Catalog& cat = obs::catalog();
  obs::counter_add(cat.memo_unit_time_hits, tally_.unit_time_hits);
  obs::counter_add(cat.memo_unit_time_misses, tally_.unit_time_misses);
  obs::counter_add(cat.memo_power_hits, tally_.power_hits);
  obs::counter_add(cat.memo_power_misses, tally_.power_misses);
  tally_ = Tally{};
}

}  // namespace hars
