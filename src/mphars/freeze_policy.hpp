// Interference-aware adaptation decisions (thesis §4.1.4, Table 4.3).
//
// When one application changes the frequency of a *shared* cluster it
// perturbs every co-located application, so the adaptation direction is
// gated on: the adapting app's own performance status (AppInPeriod), the
// aggregate status of the other applications (TheOthers), and the cluster's
// frozen state. Decreases additionally freeze the cluster for a number of
// heartbeats so all affected apps re-collect reliable performance data
// before anyone adapts on stale rates.
#pragma once

namespace hars {

enum class PerfStatus { kUnderperf, kAchieve, kOverperf };
enum class StateDecision { kInc, kKeep, kDec };
enum class FreezeDecision { kFreeze, kUnfreeze, kKeep };

const char* perf_status_name(PerfStatus s);
const char* state_decision_name(StateDecision s);
const char* freeze_decision_name(FreezeDecision s);

struct InterferenceDecision {
  StateDecision state = StateDecision::kKeep;
  FreezeDecision freeze = FreezeDecision::kKeep;
};

/// Heartbeats a frequency decrease freezes its cluster for: the freezing
/// count MP-HARS and CONS-I arm on every affected application.
inline constexpr int kFreezeHeartbeats = 5;

/// Table 4.3, implemented verbatim (all 18 rows).
InterferenceDecision decide_interference(PerfStatus app_in_period,
                                         PerfStatus the_others, bool frozen);

/// Status of a rate against a target window.
PerfStatus classify(double rate, double target_min, double target_max);

}  // namespace hars
