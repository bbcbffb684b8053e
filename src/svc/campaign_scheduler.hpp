// CampaignScheduler: maps client campaigns onto one shared TaskPool and
// tracks them for status/cancel/drain.
//
// Expansion: a declarative CampaignRequest becomes a SweepSpec (sweep
// mode) or an ExperimentBuilder (run mode). This is the one mapping from
// campaign flags to experiments: hars_sim parses its flags into a
// CampaignRequest and calls the same functions whether it runs locally
// or submits to a daemon, which is what makes daemon-streamed records
// byte-identical to a local run. Unknown benchmark / variant /
// platform / scenario names are rejected up front with a message naming
// the offender (mapped to kBadRequest by the connection layer).
//
// Scheduling: all campaigns share the daemon's one pool; the SweepEngine
// runs each with SweepOptions::shared_pool, so concurrent campaigns
// interleave at case granularity and never wait on each other's
// completion. Each registered campaign owns an atomic
// control word (SweepControl) the engine polls — cancel flips one
// campaign's word, drain_all flips every current *and future* one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/protocol.hpp"
#include "sweep/sweep_engine.hpp"
#include "sweep/sweep_spec.hpp"
#include "util/fan_out.hpp"

namespace hars {
namespace flags {
class Parser;
}  // namespace flags

namespace svc {

/// Declares the campaign flags hars_sim and hars_client share, bound to
/// `campaign`: --bench, --version, --platform, --scenario, --fraction and
/// --distance (repeatable), --duration, --threads, --seed and
/// --derive-seeds.
void declare_campaign_flags(flags::Parser& cli, CampaignRequest* campaign);

/// Fills the campaign defaults into `campaign`: SW when no bench or
/// scenario is named, HARS-E when no version is, and in run mode a 0.50
/// target fraction when none is. The two builders below apply them to
/// their own copy, so applying them first changes nothing.
void apply_campaign_defaults(CampaignRequest* campaign);

/// Builds the sweep-mode SweepSpec for `campaign`, the one mapping both
/// local hars_sim sweeps and the daemon use. Returns an error message
/// naming the first invalid field, or empty on success; `cases` receives
/// the expanded case count.
std::string expand_sweep_campaign(const CampaignRequest& campaign,
                                  SweepSpec* spec, std::size_t* cases);

/// Builds the run-mode ExperimentBuilder for `campaign`, the one mapping
/// both local hars_sim runs and the daemon use. Returns an error message
/// or empty.
std::string build_run_experiment(const CampaignRequest& campaign,
                                 ExperimentBuilder* builder);

class CampaignScheduler {
 public:
  /// One live campaign. `control` is the word the SweepEngine polls
  /// (values of SweepControl); `emitted` is advanced by the daemon's
  /// streaming sink as records leave, so `status` responses report live
  /// progress without touching the engine.
  struct Campaign {
    std::uint64_t id = 0;
    std::uint64_t session = 0;
    std::uint64_t cases = 0;
    std::atomic<int> control{static_cast<int>(SweepControl::kRun)};
    std::atomic<std::uint64_t> emitted{0};
  };
  using CampaignPtr = std::shared_ptr<Campaign>;

  /// `jobs` <= 0 selects hardware_threads().
  explicit CampaignScheduler(int jobs);

  CampaignPtr register_campaign(std::uint64_t session, std::uint64_t cases);
  void unregister_campaign(std::uint64_t id);

  /// Flips one campaign to kCancel; false when no such campaign.
  bool cancel(std::uint64_t id);
  /// Cancels every campaign owned by `session` (connection teardown).
  void cancel_session(std::uint64_t session);
  /// Flips every current and future campaign to kDrain. Idempotent.
  void drain_all();

  std::vector<CampaignStatus> status() const;
  TaskPool& pool() { return pool_; }
  int jobs() const { return pool_.worker_count(); }
  std::uint64_t active_count() const;
  std::uint64_t total_count() const;

 private:
  TaskPool pool_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, CampaignPtr> active_;
  std::uint64_t next_id_ = 1;
  std::uint64_t total_ = 0;
  bool draining_ = false;
};

}  // namespace svc
}  // namespace hars
