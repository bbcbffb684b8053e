#include "sched/load_tracker.hpp"

#include <cmath>

namespace hars {

LoadTracker::LoadTracker(TimeUs half_life_us) : half_life_us_(half_life_us) {}

double LoadTracker::decay_for(TimeUs tick_us) const {
  return std::exp2(-static_cast<double>(tick_us) /
                   static_cast<double>(half_life_us_));
}

}  // namespace hars
