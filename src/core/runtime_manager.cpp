#include "core/runtime_manager.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "backend/backend.hpp"
#include "core/tabu_search.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_guard.hpp"
#include "util/audit.hpp"

namespace hars {

namespace {
/// Trajectory parameters when the policy is SearchPolicy::kTabu.
constexpr TabuParams kTabuParams{};
}  // namespace

RuntimeManager::RuntimeManager(Backend& backend, AppId app, PerfTarget target,
                               PowerCoeffTable coeffs,
                               RuntimeManagerConfig config)
    : backend_(backend),
      app_(app),
      perf_est_(backend_.topology(), config.r0),
      power_est_(std::move(coeffs)),
      config_(config),
      space_(StateSpace::from_machine(backend_.topology())),
      predictor_(make_predictor(config.predictor)) {
  if (!target.is_valid_window()) {
    throw std::invalid_argument(
        "RuntimeManager: target window must be positive (0 <= min <= max, "
        "max > 0); a non-positive average zeroes every normalized-perf "
        "score and the search would pick arbitrarily");
  }
  if (config_.learn_ratio) {
    RatioLearnerConfig learner_config;
    learner_config.prior_r0 = config_.r0;
    ratio_learner_.emplace(backend_.topology(), backend_.thread_count(app_),
                           learner_config);
  }
  backend_.heartbeats(app_).set_target(target);
  apply_state(space_.max_state());
}

CpuMask RuntimeManager::big_set(const SystemState& s) const {
  const Machine& m = backend_.topology();
  const CoreId first = m.fastest_mask().first();
  return CpuMask::range(first, s.big_cores);
}

CpuMask RuntimeManager::little_set(const SystemState& s) const {
  const Machine& m = backend_.topology();
  const CoreId first = m.slowest_mask().first();
  return CpuMask::range(first, s.little_cores);
}

void RuntimeManager::apply_state(const SystemState& state) {
  state_ = state;
  const Machine& m = backend_.topology();
  backend_.set_dvfs_level(m.fastest_cluster(), state.big_freq);
  backend_.set_dvfs_level(m.slowest_cluster(), state.little_freq);
  const int t = backend_.thread_count(app_);
  const ThreadAssignment a = perf_est_.assignment(state, t);
  apply_thread_schedule(backend_, app_, config_.scheduler, a, big_set(state),
                        little_set(state));
}

TimeUs RuntimeManager::poll() {
  // Manager bookkeeping (trace growth, predictor state, schedule
  // changes) is a declared amortized allocator inside the engine's
  // guarded tick; the candidate searches below re-tighten the contract
  // with their own AllocGuard for the duration of each sweep.
  allocg::AllowScope allow("runtime-manager bookkeeping");

  const HeartbeatMonitor& hb = backend_.heartbeats(app_);
  const std::int64_t idx = hb.last_index();
  if (idx < 0 || idx == last_seen_hb_) return 0;
  last_seen_hb_ = idx;

  const double measured_rate = hb.rate();
  const double rate = predictor_->observe(measured_rate);
  if (ratio_learner_ && measured_rate > 0.0 &&
      (last_change_hb_ < 0 || idx - last_change_hb_ >= kSettleBeats)) {
    // Only settled rates are attributable to the current state.
    ratio_learner_->observe(state_, measured_rate);
    perf_est_.set_r0(ratio_learner_->estimate());
  }
  const Machine& m = backend_.topology();
  trace_.push_back(TracePoint{
      idx, measured_rate, state_.big_cores, state_.little_cores,
      m.freq_ghz_at_level(m.fastest_cluster(), state_.big_freq),
      m.freq_ghz_at_level(m.slowest_cluster(), state_.little_freq)});

  if (idx % config_.adapt_period != 0) return 0;  // isAdaptPeriod
  if (rate <= 0.0) return 0;  // Not enough beats for a windowed rate yet.
  if (last_change_hb_ >= 0 && idx - last_change_hb_ < kSettleBeats) {
    return 0;  // Window still mixes pre-change rates.
  }

  const PerfTarget& target = hb.target();
  if (std::abs(rate - target.avg()) <= 0.5 * (target.max - target.min)) {
    return 0;  // Inside the window: nothing to do.
  }

  const bool overperforming = rate > target.avg();
  const int threads = backend_.thread_count(app_);
  // The memo's other inputs (machine, coefficients) are fixed for the
  // manager's lifetime; only the ratio learner moves r0, and a moved r0
  // makes every entry stale, so that alone opens a new epoch.
  if (perf_est_.r0() != memo_r0_) {
    scratch_.begin_tick(space_);
    memo_r0_ = perf_est_.r0();
  }
  const bool tabu = config_.policy == SearchPolicy::kTabu;
  const SearchParams params =
      params_for_policy(config_.policy, overperforming,
                        kExhaustiveWindow, config_.exhaustive_d);
  const SearchResult result =
      tabu ? tabu_get_next_sys_state(rate, state_, target, kTabuParams,
                                     space_, perf_est_, power_est_, threads,
                                     {}, &scratch_)
           : get_next_sys_state(rate, state_, target, params, space_,
                                perf_est_, power_est_, threads, {}, &scratch_);
  {
    const obs::Catalog& cat = obs::catalog();
    obs::counter_add(config_.policy == SearchPolicy::kTabu
                         ? cat.candidates_tabu
                         : config_.policy == SearchPolicy::kExhaustive
                               ? cat.candidates_exhaustive
                               : cat.candidates_incremental,
                     static_cast<std::uint64_t>(result.candidates));
  }
  if (backend_.audit_enabled()) {
    // The sweep only considers space_-valid candidates, so a violation
    // here means the search itself (or a memo table) corrupted a state.
    const std::string why = result.state.check_invariants(space_);
    if (!why.empty()) {
      throw AuditError("RuntimeManager: search returned invalid state: " +
                       why);
    }
    // Cross-check against the reference search, which recomputes every
    // estimate: a stale memo entry (say, one that outlived an r0 change)
    // shows up here.
    allocg::AllowScope allow_audit("audit diagnostics");
    audit_search_result(
        result,
        tabu ? tabu_get_next_sys_state_reference(rate, state_, target,
                                                 kTabuParams, space_,
                                                 perf_est_, power_est_, threads)
             : get_next_sys_state_reference(rate, state_, target, params,
                                            space_, perf_est_, power_est_,
                                            threads),
        "RuntimeManager");
  }
  const TimeUs cost =
      kAdaptFixedCostUs + kCostPerCandidateUs * result.candidates;
  if (result.moved) {
    const double t_old = perf_est_.unit_time(state_, threads);
    const double t_new = perf_est_.unit_time(result.state, threads);
    apply_state(result.state);
    ++adaptations_;
    last_change_hb_ = idx;
    if (t_new > 0.0 && std::isfinite(t_old) && std::isfinite(t_new)) {
      predictor_->on_state_change(t_old / t_new);
    }
  }
  return cost;
}

}  // namespace hars
