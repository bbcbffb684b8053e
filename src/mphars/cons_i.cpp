#include "mphars/cons_i.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "backend/backend.hpp"
#include "util/alloc_guard.hpp"

namespace hars {

double cons_perf_score(const Machine& machine, const SystemState& s,
                       double r0) {
  const double fb = machine.freq_ghz_at_level(machine.fastest_cluster(), s.big_freq);
  const double fl =
      machine.freq_ghz_at_level(machine.slowest_cluster(), s.little_freq);
  return s.big_cores * r0 * (fb / kF0Ghz) + s.little_cores * (fl / kF0Ghz);
}

ConsIManager::ConsIManager(Backend& backend, ConsIConfig config)
    : backend_(backend),
      config_(config) {
  build_state_list();
  // Start at the maximum state, like the baseline.
  state_ = StateSpace::from_machine(backend_.topology()).max_state();
  apply_state(state_);
}

void ConsIManager::build_state_list() {
  const Machine& m = backend_.topology();
  const int max_big = m.cluster_core_count(m.fastest_cluster());
  const int max_little = m.cluster_core_count(m.slowest_cluster());
  const int nb_freqs = m.num_freq_levels(m.fastest_cluster());
  const int nl_freqs = m.num_freq_levels(m.slowest_cluster());
  // cpu0 can never go offline. When it belongs to a controlled pool that
  // pool's count must stay >= 1 so the model matches the force-online
  // core (on the XU3 cpu0 is a little core, hence the paper's C_L >= 1);
  // when cpu0 sits in a middle cluster, keep C_L >= 1 so the controlled
  // pools always offer the applications at least one core.
  const int min_big = m.fastest_mask().test(0) ? 1 : 0;
  const int min_little = min_big == 0 ? 1 : 0;
  for (int cb = min_big; cb <= max_big; ++cb) {
    for (int cl = min_little; cl <= max_little; ++cl) {
      for (int fb = 0; fb < nb_freqs; ++fb) {
        for (int fl = 0; fl < nl_freqs; ++fl) {
          states_.push_back(SystemState{cb, cl, fb, fl});
        }
      }
    }
  }
  std::stable_sort(states_.begin(), states_.end(),
                   [&](const SystemState& a, const SystemState& b) {
                     return cons_perf_score(m, a, config_.r0) <
                            cons_perf_score(m, b, config_.r0);
                   });
  // Quantize into a ladder: keep one representative per kMinScoreStep,
  // always retaining the maximum state (the boot configuration).
  std::vector<SystemState> ladder;
  double last_score = -1e18;
  for (const auto& s : states_) {
    const double score = cons_perf_score(m, s, config_.r0);
    if (score - last_score >= kMinScoreStep) {
      ladder.push_back(s);
      last_score = score;
    }
  }
  const SystemState max_state = StateSpace::from_machine(m).max_state();
  if (ladder.empty() || !(ladder.back() == max_state)) {
    ladder.push_back(max_state);
  }
  states_ = std::move(ladder);
  scores_.reserve(states_.size());
  for (const auto& s : states_) {
    scores_.push_back(cons_perf_score(m, s, config_.r0));
  }
}

std::size_t ConsIManager::current_index() const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == state_) return i;
  }
  return states_.size() - 1;
}

void ConsIManager::register_app(AppId app, const ConsIAppConfig& app_config) {
  if (!app_config.target.is_valid_window()) {
    throw std::invalid_argument(
        "ConsIManager::register_app: target window must be positive");
  }
  AppEntry entry;
  entry.app = app;
  entry.target = app_config.target;
  entry.adapt_period = app_config.adapt_period;
  apps_.push_back(std::move(entry));
  backend_.heartbeats(app).set_target(app_config.target);
}

bool ConsIManager::set_app_target(AppId app, PerfTarget target) {
  if (!target.is_valid_window()) {
    throw std::invalid_argument(
        "ConsIManager::set_app_target: target window must be positive");
  }
  for (AppEntry& entry : apps_) {
    if (entry.app == app && entry.alive) {
      entry.target = target;
      backend_.heartbeats(app).set_target(target);
      return true;
    }
  }
  return false;
}

bool ConsIManager::unregister_app(AppId app) {
  for (AppEntry& entry : apps_) {
    if (entry.app == app && entry.alive) {
      entry.alive = false;
      entry.rate = 0.0;  // A departed app no longer constrains decisions.
      entry.freezing_cnt = 0;
      return true;
    }
  }
  return false;
}

void ConsIManager::apply_state(const SystemState& s) {
  state_ = s;
  const Machine& m = backend_.topology();
  backend_.set_dvfs_level(m.fastest_cluster(), s.big_freq);
  backend_.set_dvfs_level(m.slowest_cluster(), s.little_freq);
  // Global core counts are realized with hotplug: the first C_L slow-pool
  // and first C_B fast-pool cores stay online; everything runs unpinned
  // under GTS. Middle clusters of an N-cluster machine are outside the
  // model's two controlled pools and stay online under OS control.
  CpuMask online;
  for (ClusterId c = 0; c < m.num_clusters(); ++c) {
    if (c != m.fastest_cluster() && c != m.slowest_cluster()) {
      online = online | m.cluster_mask(c);
    }
  }
  const CoreId little_first = m.slowest_mask().first();
  for (int i = 0; i < s.little_cores; ++i) online.set(little_first + i);
  const CoreId big_first = m.fastest_mask().first();
  for (int i = 0; i < s.big_cores; ++i) online.set(big_first + i);
  backend_.set_online_mask(online);
}

const std::vector<TracePoint>& ConsIManager::trace(AppId app) const {
  static const std::vector<TracePoint> kEmpty;
  for (const auto& entry : apps_) {
    if (entry.app == app) return entry.trace;
  }
  return kEmpty;
}

TimeUs ConsIManager::poll() {
  // Per-app trace growth and hotplug/schedule changes are declared
  // amortized allocators inside the engine's guarded tick.
  allocg::AllowScope allow("cons-i bookkeeping");
  TimeUs cost = 0;

  const Machine& m = backend_.topology();
  for (AppEntry& entry : apps_) {
    if (!entry.alive) continue;
    const HeartbeatMonitor& hb = backend_.heartbeats(entry.app);
    const std::int64_t idx = hb.last_index();
    if (idx < 0 || idx == entry.last_seen_hb) continue;
    const std::int64_t new_beats = idx - entry.last_seen_hb;
    entry.last_seen_hb = idx;
    entry.rate = hb.rate();
    for (std::int64_t i = 0; i < new_beats; ++i) {
      if (entry.freezing_cnt > 0) --entry.freezing_cnt;
    }
    entry.trace.push_back(TracePoint{idx, entry.rate, state_.big_cores,
                                     state_.little_cores,
                                     m.freq_ghz(m.fastest_cluster()),
                                     m.freq_ghz(m.slowest_cluster())});

    if (idx % entry.adapt_period != 0) continue;
    if (entry.rate <= 0.0) continue;  // No windowed rate yet.
    if (entry.target.contains(entry.rate)) continue;

    // Departed entries are excluded everywhere freezing counts are read
    // or armed: they emit no heartbeats, so a count set on one would
    // never decay and would freeze the system for the rest of the run.
    const bool frozen = std::any_of(apps_.begin(), apps_.end(),
                                    [](const AppEntry& a) {
                                      return a.alive && a.freezing_cnt > 0;
                                    });
    const PerfStatus own =
        classify(entry.rate, entry.target.min, entry.target.max);
    bool any_under = false;
    bool any_achieve = false;
    bool any_other = false;
    for (const AppEntry& other : apps_) {
      if (other.app == entry.app) continue;
      // Apps that have not emitted any heartbeat yet (e.g. blackscholes'
      // input phase, §5.2.2 case 6) do not constrain the decision.
      if (other.rate <= 0.0) continue;
      any_other = true;
      const PerfStatus st =
          classify(other.rate, other.target.min, other.target.max);
      if (st == PerfStatus::kUnderperf) any_under = true;
      if (st == PerfStatus::kAchieve) any_achieve = true;
    }
    PerfStatus others = PerfStatus::kOverperf;
    if (any_other) {
      if (any_under) {
        others = PerfStatus::kUnderperf;
      } else if (any_achieve) {
        others = PerfStatus::kAchieve;
      }
    }

    const InterferenceDecision decision = decide_interference(own, others, frozen);
    cost += kStepCostUs;

    if (decision.freeze == FreezeDecision::kUnfreeze) {
      for (AppEntry& a : apps_) {
        if (a.alive) a.freezing_cnt = 0;
      }
    }

    const std::size_t idx_now = current_index();
    if (decision.state == StateDecision::kInc) {
      // Nearest strictly-higher perfScore.
      std::size_t j = idx_now;
      while (j + 1 < states_.size() && scores_[j] <= scores_[idx_now]) ++j;
      if (scores_[j] > scores_[idx_now]) apply_state(states_[j]);
    } else if (decision.state == StateDecision::kDec) {
      std::size_t j = idx_now;
      while (j > 0 && scores_[j] >= scores_[idx_now]) --j;
      if (scores_[j] < scores_[idx_now]) {
        apply_state(states_[j]);
        if (decision.freeze == FreezeDecision::kFreeze) {
          for (AppEntry& a : apps_) {
            if (a.alive) a.freezing_cnt = kFreezeHeartbeats;
          }
        }
      }
    }
  }
  return cost;
}

}  // namespace hars
