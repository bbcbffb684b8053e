#include "svc/campaign_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "apps/parsec.hpp"
#include "core/search.hpp"
#include "core/thread_scheduler.hpp"
#include "core/workload_predictor.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "scenario/scenario_registry.hpp"
#include "util/flags.hpp"

namespace hars {
namespace svc {

namespace {

/// Resolves campaign name lists against the registries; empty return =
/// ok. Shared by sweep and run expansion.
std::string resolve_names(const CampaignRequest& campaign,
                          std::vector<ParsecBenchmark>* benches) {
  for (const std::string& name : campaign.benches) {
    const std::optional<ParsecBenchmark> bench = parse_parsec_benchmark(name);
    if (!bench) return "unknown benchmark '" + name + "'";
    benches->push_back(*bench);
  }
  for (const std::string& name : campaign.variants) {
    if (VariantRegistry::instance().find(name) == nullptr) {
      return "unknown version '" + name + "'";
    }
  }
  for (const std::string& name : campaign.platforms) {
    if (PlatformRegistry::instance().find(name) == nullptr) {
      return "unknown platform '" + name + "'";
    }
  }
  for (const std::string& name : campaign.scenarios) {
    if (ScenarioRegistry::instance().find(name) == nullptr) {
      // get() distinguishes a malformed gen: name (generator diagnostic)
      // from a plain unknown preset; either way the campaign is typed
      // invalid here, before any case runs.
      try {
        ScenarioRegistry::instance().get(name);
        return "unknown scenario '" + name + "'";
      } catch (const ScenarioError& error) {
        return error.what();
      }
    }
  }
  if (!campaign.scenarios.empty() && !campaign.benches.empty()) {
    return "benches and scenarios are exclusive (the scenario's spawn "
           "events define the apps)";
  }
  return {};
}

}  // namespace

void declare_campaign_flags(flags::Parser& cli, CampaignRequest* campaign) {
  std::string versions;
  for (const std::string& name : VariantRegistry::instance().names()) {
    if (!versions.empty()) versions += '|';
    versions += name;
  }
  cli.flag("--bench NAME", &campaign->benches,
           "BL|BO|FA|FE|FL|SW or the full name (default SW);\n"
           "repeat for a multi-app run or a bench axis")
      .flag("--version NAME", &campaign->variants,
            versions + "\n(default HARS-E); repeat for a sweep axis")
      .flag("--platform NAME", &campaign->platforms,
            "registered platform (default exynos5422);\n"
            "repeat for a sweep axis")
      .flag("--scenario NAME", &campaign->scenarios,
            "registered scenario or gen:PROFILE[:k=v;...] name;\n"
            "exclusive with --bench; repeat for a sweep axis")
      .flag("--fraction F", &campaign->fractions,
            "target as fraction of max achievable (default 0.5);\n"
            "repeat for a sweep axis")
      .flag("--distance D", &campaign->distances,
            "HARS-EI search distance axis (sweep); repeatable")
      .flag("--duration SEC", &campaign->duration_sec,
            "measured run length in simulated seconds (default 120)")
      .flag("--threads N", &campaign->threads,
            "application threads (default 8)")
      .flag("--seed N", &campaign->seed, "deterministic seed (default 1)")
      .flag("--derive-seeds", &campaign->derive_seeds,
            "per-case coordinate-derived RNG seeds (sweep)");
}

void apply_campaign_defaults(CampaignRequest* campaign) {
  if (campaign->benches.empty() && campaign->scenarios.empty()) {
    campaign->benches.push_back(parsec_code(ParsecBenchmark::kSwaptions));
  }
  if (campaign->variants.empty()) campaign->variants.push_back("HARS-E");
  if (campaign->mode == "run" && campaign->fractions.empty()) {
    campaign->fractions.push_back(0.50);
  }
}

std::string expand_sweep_campaign(const CampaignRequest& request,
                                  SweepSpec* spec, std::size_t* cases) {
  CampaignRequest campaign = request;
  apply_campaign_defaults(&campaign);
  std::vector<ParsecBenchmark> benches;
  std::string error = resolve_names(campaign, &benches);
  if (!error.empty()) return error;

  const double duration_sec = campaign.duration_sec;
  const int threads = campaign.threads;
  const std::uint64_t seed = campaign.seed;
  spec->name("hars_sim_sweep")
      .base([duration_sec, threads, seed](ExperimentBuilder& b) {
        b.duration_sec(duration_sec).threads(threads).seed(seed);
      })
      .base_seed(seed);
  if (!benches.empty()) spec->benchmarks(benches);
  if (!campaign.scenarios.empty()) spec->scenarios(campaign.scenarios);
  spec->variants(campaign.variants);
  if (!campaign.platforms.empty()) spec->platforms(campaign.platforms);
  if (!campaign.fractions.empty()) spec->target_fractions(campaign.fractions);
  if (!campaign.distances.empty()) spec->search_distances(campaign.distances);
  if (campaign.derive_seeds) spec->seed_mode(SeedMode::kDerived);

  const std::size_t expanded = spec->expand().size();
  if (cases != nullptr) *cases = expanded;
  if (campaign.start_case > expanded) {
    return "start_case beyond the campaign's " + std::to_string(expanded) +
           " cases";
  }
  return {};
}

std::string build_run_experiment(const CampaignRequest& request,
                                 ExperimentBuilder* builder) {
  CampaignRequest campaign = request;
  campaign.mode = "run";
  apply_campaign_defaults(&campaign);
  std::vector<ParsecBenchmark> benches;
  std::string error = resolve_names(campaign, &benches);
  if (!error.empty()) return error;
  if (campaign.scenarios.size() > 1) {
    return "run mode takes at most one scenario";
  }
  if (campaign.platforms.size() > 1) {
    return "run mode takes at most one platform";
  }
  if (campaign.variants.size() > 1) {
    return "run mode takes at most one version";
  }
  if (campaign.fractions.size() > 1) {
    return "run mode takes at most one fraction";
  }
  if (!campaign.distances.empty()) {
    return "distances are a sweep-mode axis";
  }

  if (!campaign.scheduler.empty()) {
    const auto kind = parse_thread_scheduler(campaign.scheduler);
    if (!kind) return "unknown scheduler '" + campaign.scheduler + "'";
    builder->scheduler(*kind);
  }
  if (!campaign.predictor.empty()) {
    const auto kind = parse_predictor_kind(campaign.predictor);
    if (!kind) return "unknown predictor '" + campaign.predictor + "'";
    builder->predictor(*kind);
  }
  if (!campaign.policy.empty()) {
    const auto policy = parse_search_policy(campaign.policy);
    if (!policy) return "unknown policy '" + campaign.policy + "'";
    builder->policy(*policy);
  }
  if (campaign.learn_ratio) builder->learn_ratio(true);

  if (!campaign.platforms.empty()) {
    builder->platform(std::string_view(campaign.platforms.front()));
  }
  if (!campaign.scenarios.empty()) {
    builder->scenario(std::string_view(campaign.scenarios.front()));
  } else {
    builder->apps(benches);
  }
  builder->variant(campaign.variants.front())
      .target_fraction(campaign.fractions.front())
      .duration_sec(campaign.duration_sec)
      .threads(campaign.threads)
      .seed(campaign.seed);
  return {};
}

CampaignScheduler::CampaignScheduler(int jobs) : pool_(jobs) {}

CampaignScheduler::CampaignPtr CampaignScheduler::register_campaign(
    std::uint64_t session, std::uint64_t cases) {
  std::lock_guard<std::mutex> lock(mutex_);
  CampaignPtr campaign = std::make_shared<Campaign>();
  campaign->id = next_id_++;
  campaign->session = session;
  campaign->cases = cases;
  if (draining_) {
    campaign->control.store(static_cast<int>(SweepControl::kDrain),
                            std::memory_order_relaxed);
  }
  active_.emplace(campaign->id, campaign);
  ++total_;
  return campaign;
}

void CampaignScheduler::unregister_campaign(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(id);
}

bool CampaignScheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_.find(id);
  if (it == active_.end()) return false;
  it->second->control.store(static_cast<int>(SweepControl::kCancel),
                            std::memory_order_relaxed);
  return true;
}

void CampaignScheduler::cancel_session(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, campaign] : active_) {
    if (campaign->session == session) {
      campaign->control.store(static_cast<int>(SweepControl::kCancel),
                              std::memory_order_relaxed);
    }
  }
}

void CampaignScheduler::drain_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  for (auto& [id, campaign] : active_) {
    // A cancelled campaign stays cancelled (cancel is the stronger word
    // for reporting; scheduling behaviour is identical).
    int expected = static_cast<int>(SweepControl::kRun);
    campaign->control.compare_exchange_strong(
        expected, static_cast<int>(SweepControl::kDrain),
        std::memory_order_relaxed);
  }
}

std::vector<CampaignStatus> CampaignScheduler::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CampaignStatus> out;
  out.reserve(active_.size());
  for (const auto& [id, campaign] : active_) {
    CampaignStatus row;
    row.campaign = id;
    const auto control = static_cast<SweepControl>(
        campaign->control.load(std::memory_order_relaxed));
    row.state = control == SweepControl::kRun      ? "running"
                : control == SweepControl::kDrain  ? "draining"
                                                   : "cancelling";
    row.cases = campaign->cases;
    row.emitted = campaign->emitted.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const CampaignStatus& a, const CampaignStatus& b) {
              return a.campaign < b.campaign;
            });
  return out;
}

std::uint64_t CampaignScheduler::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.size();
}

std::uint64_t CampaignScheduler::total_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

}  // namespace svc
}  // namespace hars
