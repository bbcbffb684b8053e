#include "mphars/mphars_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "backend/backend.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"
#include "util/audit.hpp"

namespace hars {

MpHarsManager::MpHarsManager(Backend& backend, PowerCoeffTable coeffs,
                             MpHarsConfig config)
    : backend_(backend),
      registry_(backend_.topology().cluster_core_count(
                    backend_.topology().fastest_cluster()),
                backend_.topology().cluster_core_count(
                    backend_.topology().slowest_cluster())),
      perf_est_(backend_.topology(), config.r0),
      power_est_(std::move(coeffs)),
      config_(config),
      machine_space_(StateSpace::from_machine(backend_.topology())) {
  // Every input of the memo (machine, coefficients, the fixed r0) is
  // constant for the manager's lifetime: one epoch serves every search.
  scratch_.begin_tick(machine_space_);
}

void MpHarsManager::register_app(AppId app, const MpHarsAppConfig& app_config) {
  if (!app_config.target.is_valid_window()) {
    throw std::invalid_argument(
        "MpHarsManager::register_app: target window must be positive");
  }
  AppNode& node = registry_.add(app);
  node.target = app_config.target;
  node.adapt_period = app_config.adapt_period;
  node.scheduler = app_config.scheduler;
  backend_.heartbeats(app).set_target(app_config.target);

  // Even initial split of each cluster across all registered apps: release
  // everything, then re-allocate fair shares in registration order.
  const int napps = static_cast<int>(registry_.size());
  const int big_share = std::max(
      1, registry_.fastest_cluster().free_core.empty()
             ? 0
             : static_cast<int>(registry_.fastest_cluster().free_core.size()) / napps);
  const int little_share = std::max(
      1, static_cast<int>(registry_.slowest_cluster().free_core.size()) / napps);
  registry_.for_each([&](AppNode& n) {
    n.dec_big_core_cnt = n.used_big_count();
    n.dec_little_core_cnt = n.used_little_count();
    n.nprocs_b = 0;
    n.nprocs_l = 0;
    allocate_core_set(n, registry_.fastest_cluster(),
                      registry_.slowest_cluster(),
                      backend_.topology().fastest_mask().first(),
                      backend_.topology().slowest_mask().first());
  });
  registry_.for_each([&](AppNode& n) {
    SystemState initial;
    initial.big_cores = big_share;
    initial.little_cores = little_share;
    initial.big_freq = machine_space_.num_big_freqs - 1;
    initial.little_freq = machine_space_.num_little_freqs - 1;
    apply_app_state(n, initial);
  });
}

bool MpHarsManager::unregister_app(AppId app) {
  return registry_.remove(app);
}

bool MpHarsManager::set_app_target(AppId app, PerfTarget target) {
  if (!target.is_valid_window()) {
    throw std::invalid_argument(
        "MpHarsManager::set_app_target: target window must be positive");
  }
  AppNode* node = registry_.find(app);
  if (node == nullptr) return false;
  node->target = target;
  backend_.heartbeats(app).set_target(target);
  return true;
}

SystemState MpHarsManager::current_state_of(const AppNode& node) const {
  const Machine& m = backend_.topology();
  SystemState s;
  s.big_cores = node.nprocs_b;
  s.little_cores = node.nprocs_l;
  s.big_freq = m.freq_level(m.fastest_cluster());
  s.little_freq = m.freq_level(m.slowest_cluster());
  return s;
}

SystemState MpHarsManager::app_state(AppId app) const {
  const AppNode* node = registry_.find(app);
  return node != nullptr ? current_state_of(*node) : SystemState{};
}

const std::vector<TracePoint>& MpHarsManager::trace(AppId app) const {
  static const std::vector<TracePoint> kEmpty;
  const AppNode* node = registry_.find(app);
  return node != nullptr ? node->trace : kEmpty;
}

bool MpHarsManager::cluster_shared(const AppNode& node, bool big_cluster) const {
  bool shared = false;
  registry_.for_each([&](const AppNode& other) {
    if (other.app_id == node.app_id) return;
    const int used = big_cluster ? other.used_big_count() : other.used_little_count();
    if (used > 0) shared = true;
  });
  return shared;
}

PerfStatus MpHarsManager::others_status(const AppNode& node,
                                        bool big_cluster) const {
  bool any_under = false;
  bool any_achieve = false;
  bool any_other = false;
  registry_.for_each([&](const AppNode& other) {
    if (other.app_id == node.app_id) return;
    const int used = big_cluster ? other.used_big_count() : other.used_little_count();
    if (used == 0) return;
    if (other.heartbeat_rate <= 0.0) return;  // Not emitting heartbeats yet.
    any_other = true;
    const PerfStatus st =
        classify(other.heartbeat_rate, other.target.min, other.target.max);
    if (st == PerfStatus::kUnderperf) any_under = true;
    if (st == PerfStatus::kAchieve) any_achieve = true;
  });
  if (!any_other) return PerfStatus::kOverperf;  // No one to disturb.
  if (any_under) return PerfStatus::kUnderperf;
  if (any_achieve) return PerfStatus::kAchieve;
  return PerfStatus::kOverperf;
}

void MpHarsManager::record_trace(AppNode& node) {
  const Machine& m = backend_.topology();
  node.trace.push_back(TracePoint{
      node.last_seen_hb, node.heartbeat_rate, node.nprocs_b, node.nprocs_l,
      m.freq_ghz(m.fastest_cluster()), m.freq_ghz(m.slowest_cluster())});
}

void MpHarsManager::apply_app_state(AppNode& node, const SystemState& next) {
  const Machine& m = backend_.topology();
  // Core bookkeeping: queue releases for shrunk clusters, then run the
  // Algorithm 4 allocator.
  node.dec_big_core_cnt = std::max(0, node.used_big_count() - next.big_cores);
  node.dec_little_core_cnt =
      std::max(0, node.used_little_count() - next.little_cores);
  node.nprocs_b = next.big_cores;
  node.nprocs_l = next.little_cores;
  allocate_core_set(node, registry_.fastest_cluster(),
                    registry_.slowest_cluster(), m.fastest_mask().first(),
                    m.slowest_mask().first());
  // The allocator may come up short if free cores ran out (the search
  // filter prevents this, but stay safe).
  node.nprocs_b = node.used_big_count();
  node.nprocs_l = node.used_little_count();

  const int old_big_freq = m.freq_level(m.fastest_cluster());
  const int old_little_freq = m.freq_level(m.slowest_cluster());
  backend_.set_dvfs_level(m.fastest_cluster(), next.big_freq);
  backend_.set_dvfs_level(m.slowest_cluster(), next.little_freq);
  registry_.fastest_cluster().nfreq = m.freq_level(m.fastest_cluster());
  registry_.slowest_cluster().nfreq = m.freq_level(m.slowest_cluster());

  // Pin the app's threads over its own cores.
  const SystemState applied = current_state_of(node);
  const int t = backend_.thread_count(node.app_id);
  const ThreadAssignment a = perf_est_.assignment(applied, t);
  apply_thread_schedule(backend_, node.app_id, node.scheduler, a,
                        owned_big_mask(node, m.fastest_mask().first()),
                        owned_little_mask(node, m.slowest_mask().first()));

  // Lines 23-26 of Algorithm 3: a frequency decrease freezes the cluster
  // by arming the freezing counts of every application using it.
  const bool big_dec = m.freq_level(m.fastest_cluster()) < old_big_freq;
  const bool little_dec = m.freq_level(m.slowest_cluster()) < old_little_freq;
  if (big_dec || little_dec) {
    registry_.for_each([&](AppNode& other) {
      if (big_dec && other.used_big_count() > 0) {
        other.freezing_cnt_b = kFreezeHeartbeats;
      }
      if (little_dec && other.used_little_count() > 0) {
        other.freezing_cnt_l = kFreezeHeartbeats;
      }
    });
  }
}

TimeUs MpHarsManager::adapt_app(AppNode& node) {
  const double rate = node.heartbeat_rate;
  const PerfTarget& target = node.target;
  if (rate <= 0.0) return 0;  // No windowed rate yet.
  if (node.adaptation_index >= 0 &&
      node.last_seen_hb - node.adaptation_index < kSettleBeats) {
    return 0;  // Heartbeat window still mixes pre-change rates.
  }
  if (std::abs(rate - target.avg()) <= 0.5 * (target.max - target.min)) {
    return 0;  // Inside the window.
  }

  const SystemState current = current_state_of(node);

  // Line 18: free cores not allocated to any application.
  const int free_big = registry_.fastest_cluster().free_count();
  const int free_little = registry_.slowest_cluster().free_count();

  // Line 19: frequency controllability per cluster.
  struct FreqRule {
    bool allow_inc = true;
    bool allow_dec = true;
  };
  auto rule_for = [&](bool big_cluster) -> FreqRule {
    if (!cluster_shared(node, big_cluster)) return FreqRule{};  // Exclusive.
    const bool frozen = big_cluster
                            ? registry_.fastest_cluster().frozen_flag != 0
                            : registry_.slowest_cluster().frozen_flag != 0;
    const PerfStatus own = classify(rate, target.min, target.max);
    const PerfStatus others = others_status(node, big_cluster);
    const InterferenceDecision decision =
        decide_interference(own, others, frozen);
    if (decision.freeze == FreezeDecision::kUnfreeze) {
      // Increases are always safe: lift the settling window.
      registry_.for_each([&](AppNode& other) {
        if (big_cluster) {
          other.freezing_cnt_b = 0;
        } else {
          other.freezing_cnt_l = 0;
        }
      });
      if (big_cluster) {
        registry_.fastest_cluster().frozen_flag = 0;
      } else {
        registry_.slowest_cluster().frozen_flag = 0;
      }
    }
    switch (decision.state) {
      case StateDecision::kInc: return FreqRule{true, false};
      case StateDecision::kKeep: return FreqRule{false, false};
      case StateDecision::kDec: return FreqRule{true, true};
    }
    return FreqRule{};
  };
  const FreqRule big_rule = rule_for(true);
  const FreqRule little_rule = rule_for(false);

  // Named lvalue: CandidateFilter is a non-owning reference, so the
  // lambda must outlive the search call.
  const auto filter_fn = [&](const SystemState& cand) {
    if (cand.big_cores > node.nprocs_b + free_big) return false;
    if (cand.little_cores > node.nprocs_l + free_little) return false;
    if (cand.big_freq > current.big_freq && !big_rule.allow_inc) return false;
    if (cand.big_freq < current.big_freq && !big_rule.allow_dec) return false;
    if (cand.little_freq > current.little_freq && !little_rule.allow_inc)
      return false;
    if (cand.little_freq < current.little_freq && !little_rule.allow_dec)
      return false;
    return true;
  };

  const bool overperforming = rate > target.avg();
  const SearchParams params =
      params_for_policy(config_.policy, overperforming,
                        kExhaustiveWindow, config_.exhaustive_d);
  const SearchResult result = get_next_sys_state(
      rate, current, target, params, machine_space_, perf_est_, power_est_,
      backend_.thread_count(node.app_id), filter_fn, &scratch_);
  {
    const obs::Catalog& cat = obs::catalog();
    obs::counter_add(config_.policy == SearchPolicy::kExhaustive
                         ? cat.candidates_exhaustive
                         : cat.candidates_incremental,
                     static_cast<std::uint64_t>(result.candidates));
  }

  if (backend_.audit_enabled()) {
    const std::string why = result.state.check_invariants(machine_space_);
    if (!why.empty()) {
      throw AuditError("MpHarsManager: search returned invalid state: " + why);
    }
    allocg::AllowScope allow_audit("audit diagnostics");
    audit_search_result(
        result,
        get_next_sys_state_reference(rate, current, target, params,
                                     machine_space_, perf_est_, power_est_,
                                     backend_.thread_count(node.app_id),
                                     filter_fn),
        "MpHarsManager");
  }

  const TimeUs cost =
      kAdaptFixedCostUs + kCostPerCandidateUs * result.candidates;
  if (result.moved) {
    apply_app_state(node, result.state);
    ++adaptations_;
    node.adaptation_index = node.last_seen_hb;
  }
  return cost;
}

TimeUs MpHarsManager::poll() {
  // Registry/trace bookkeeping and schedule changes are declared
  // amortized allocators inside the guarded tick; the candidate search
  // re-tightens via its own AllocGuard (see get_next_sys_state).
  allocg::AllowScope allow("mphars-manager bookkeeping");
  TimeUs cost = 0;

  // Algorithm 3: iterate the application list.
  registry_.for_each([&](AppNode& node) {
    const HeartbeatMonitor& hb = backend_.heartbeats(node.app_id);
    const std::int64_t idx = hb.last_index();
    if (idx < 0 || idx == node.last_seen_hb) return;
    const std::int64_t new_beats = idx - node.last_seen_hb;
    node.last_seen_hb = idx;
    node.heartbeat_rate = hb.rate();

    // Lines 8-11: each new heartbeat retires one freezing count.
    for (std::int64_t i = 0; i < new_beats; ++i) {
      if (node.freezing_cnt_b > 0) --node.freezing_cnt_b;
      if (node.freezing_cnt_l > 0) --node.freezing_cnt_l;
    }

    record_trace(node);

    // Lines 12-15: refresh the per-cluster frozen flags.
    int big_frozen = 0;
    int little_frozen = 0;
    registry_.for_each([&](const AppNode& n) {
      if (n.freezing_cnt_b > 0) big_frozen = 1;
      if (n.freezing_cnt_l > 0) little_frozen = 1;
    });
    registry_.fastest_cluster().frozen_flag = big_frozen;
    registry_.slowest_cluster().frozen_flag = little_frozen;

    // Lines 16-22: adaptation period check.
    if (idx % node.adapt_period == 0) {
      cost += adapt_app(node);
    }
  });
  return cost;
}

}  // namespace hars
