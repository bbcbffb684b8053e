// CampaignRequest expansion (hars_sim CLI parity: defaults, axis order,
// seeding, validation) and CampaignScheduler bookkeeping
// (register/cancel/drain/status over the shared pool).
#include "svc/campaign_scheduler.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <iterator>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace hars {
namespace svc {
namespace {

TEST(ExpandSweepCampaign, DefaultsMirrorHarsSim) {
  // hars_sim sweep with no flags runs SW x HARS-E, one case.
  CampaignRequest campaign;
  SweepSpec spec;
  std::size_t cases = 0;
  ASSERT_EQ(expand_sweep_campaign(campaign, &spec, &cases), "");
  EXPECT_EQ(cases, 1u);
  const std::vector<SweepCase> expanded = spec.expand();
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded[0].label("bench"), "SW");
  EXPECT_EQ(expanded[0].label("variant"), "HARS-E");
}

TEST(ExpandSweepCampaign, AxisOrderAndCountMatchCli) {
  CampaignRequest campaign;
  campaign.benches = {"SW", "BO"};
  campaign.variants = {"Baseline", "HARS-E"};
  campaign.fractions = {0.85, 0.95};
  campaign.distances = {1, 3};
  SweepSpec spec;
  std::size_t cases = 0;
  ASSERT_EQ(expand_sweep_campaign(campaign, &spec, &cases), "");
  EXPECT_EQ(cases, 16u);

  // hars_sim iterates benches outermost, then variants, fractions,
  // distances — case 0 is the first label of every axis, and the
  // innermost axis (distance) varies fastest.
  const std::vector<SweepCase> expanded = spec.expand();
  ASSERT_EQ(expanded.size(), 16u);
  EXPECT_EQ(expanded[0].label("bench"), "SW");
  EXPECT_EQ(expanded[0].label("variant"), "Baseline");
  EXPECT_EQ(expanded[0].label("fraction"), "0.85");
  EXPECT_EQ(expanded[0].label("distance"), "1");
  EXPECT_EQ(expanded[1].label("distance"), "3");
  EXPECT_EQ(expanded[1].label("fraction"), "0.85");
  EXPECT_EQ(expanded[8].label("bench"), "BO");
}

TEST(ExpandSweepCampaign, DerivedSeedsFollowTheRequest) {
  CampaignRequest campaign;
  campaign.derive_seeds = true;
  campaign.seed = 77;
  SweepSpec spec;
  std::size_t cases = 0;
  ASSERT_EQ(expand_sweep_campaign(campaign, &spec, &cases), "");
  const std::vector<SweepCase> expanded = spec.expand();
  ASSERT_EQ(expanded.size(), 1u);
  // Derived mode stamps a coordinate-derived seed != the campaign seed.
  EXPECT_NE(expanded[0].seed, 0u);
}

TEST(ExpandSweepCampaign, RejectsUnknownNamesWithMessage) {
  SweepSpec spec;
  std::size_t cases = 0;

  CampaignRequest bad_bench;
  bad_bench.benches = {"NOPE"};
  const std::string e1 = expand_sweep_campaign(bad_bench, &spec, &cases);
  EXPECT_NE(e1.find("NOPE"), std::string::npos);

  CampaignRequest bad_variant;
  bad_variant.variants = {"NOT-A-VARIANT"};
  const std::string e2 = expand_sweep_campaign(bad_variant, &spec, &cases);
  EXPECT_NE(e2.find("NOT-A-VARIANT"), std::string::npos);

  CampaignRequest bad_platform;
  bad_platform.platforms = {"missing_platform"};
  const std::string e3 = expand_sweep_campaign(bad_platform, &spec, &cases);
  EXPECT_NE(e3.find("missing_platform"), std::string::npos);

  CampaignRequest both;
  both.benches = {"SW"};
  both.scenarios = {"steady_state"};
  const std::string e4 = expand_sweep_campaign(both, &spec, &cases);
  EXPECT_FALSE(e4.empty());
}

TEST(ExpandSweepCampaign, RejectsStartCaseBeyondExpansion) {
  CampaignRequest campaign;
  campaign.benches = {"SW", "BO"};
  campaign.start_case = 3;
  SweepSpec spec;
  std::size_t cases = 0;
  const std::string error = expand_sweep_campaign(campaign, &spec, &cases);
  EXPECT_FALSE(error.empty());

  campaign.start_case = 2;  // == cases: legal no-op resume
  SweepSpec fresh;          // expansion mutates the spec; never reuse one
  EXPECT_EQ(expand_sweep_campaign(campaign, &fresh, &cases), "");
  EXPECT_EQ(cases, 2u);
}

TEST(BuildRunExperiment, SingleValuedAxesOnly) {
  ExperimentBuilder builder;

  CampaignRequest two_benches;
  two_benches.mode = "run";
  two_benches.benches = {"SW", "BO"};  // run mode takes multiple apps...
  EXPECT_EQ(build_run_experiment(two_benches, &builder), "");

  CampaignRequest two_fractions;
  two_fractions.mode = "run";
  two_fractions.fractions = {0.85, 0.95};
  EXPECT_FALSE(build_run_experiment(two_fractions, &builder).empty());

  CampaignRequest with_distances;
  with_distances.mode = "run";
  with_distances.distances = {1};
  EXPECT_FALSE(build_run_experiment(with_distances, &builder).empty());

  CampaignRequest bad_scheduler;
  bad_scheduler.mode = "run";
  bad_scheduler.scheduler = "not_a_scheduler";
  EXPECT_FALSE(build_run_experiment(bad_scheduler, &builder).empty());
}

TEST(DeclareCampaignFlags, ParseStraightIntoTheRequest) {
  CampaignRequest campaign;
  flags::Parser cli("tool");
  declare_campaign_flags(cli, &campaign);
  const char* argv[] = {"tool",       "--bench",    "SW",
                        "--bench=BO", "--version",  "HARS-E",
                        "--platform", "sd855",      "--scenario=steady",
                        "--fraction", "0.85",       "--fraction=0.95",
                        "--distance", "3",          "--duration",
                        "5",          "--threads",  "4",
                        "--seed",     "0x10",       "--derive-seeds"};
  ASSERT_EQ(cli.parse(static_cast<int>(std::size(argv)), argv),
            flags::Status::kOk);
  EXPECT_EQ(campaign.benches, (std::vector<std::string>{"SW", "BO"}));
  EXPECT_EQ(campaign.variants, std::vector<std::string>{"HARS-E"});
  EXPECT_EQ(campaign.platforms, std::vector<std::string>{"sd855"});
  EXPECT_EQ(campaign.scenarios, std::vector<std::string>{"steady"});
  EXPECT_EQ(campaign.fractions, (std::vector<double>{0.85, 0.95}));
  EXPECT_EQ(campaign.distances, std::vector<int>{3});
  EXPECT_EQ(campaign.duration_sec, 5.0);
  EXPECT_EQ(campaign.threads, 4);
  EXPECT_EQ(campaign.seed, 16u);
  EXPECT_TRUE(campaign.derive_seeds);
}

TEST(ApplyCampaignDefaults, FillsOnlyWhatIsMissing) {
  CampaignRequest sweep;
  apply_campaign_defaults(&sweep);
  EXPECT_EQ(sweep.benches, std::vector<std::string>{"SW"});
  EXPECT_EQ(sweep.variants, std::vector<std::string>{"HARS-E"});
  EXPECT_TRUE(sweep.fractions.empty());  // No fraction axis in a sweep.

  CampaignRequest run;
  run.mode = "run";
  run.scenarios = {"steady"};
  run.variants = {"HARS-I"};
  apply_campaign_defaults(&run);
  EXPECT_TRUE(run.benches.empty());  // The scenario defines the apps.
  EXPECT_EQ(run.variants, std::vector<std::string>{"HARS-I"});
  EXPECT_EQ(run.fractions, std::vector<double>{0.50});

  // Applying them again, as the builders do on their copy, is a no-op.
  CampaignRequest again = run;
  apply_campaign_defaults(&again);
  EXPECT_EQ(again.benches, run.benches);
  EXPECT_EQ(again.variants, run.variants);
  EXPECT_EQ(again.fractions, run.fractions);
}

TEST(CampaignSchedulerTest, RegisterCancelStatus) {
  CampaignScheduler scheduler(1);
  const auto a = scheduler.register_campaign(/*session=*/1, /*cases=*/10);
  const auto b = scheduler.register_campaign(/*session=*/2, /*cases=*/20);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(scheduler.active_count(), 2u);
  EXPECT_EQ(scheduler.total_count(), 2u);
  EXPECT_EQ(a->control.load(), static_cast<int>(SweepControl::kRun));

  b->emitted.store(7);
  const std::vector<CampaignStatus> rows = scheduler.status();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].campaign, a->id);
  EXPECT_EQ(rows[0].state, "running");
  EXPECT_EQ(rows[1].cases, 20u);
  EXPECT_EQ(rows[1].emitted, 7u);

  EXPECT_TRUE(scheduler.cancel(a->id));
  EXPECT_EQ(a->control.load(), static_cast<int>(SweepControl::kCancel));
  EXPECT_FALSE(scheduler.cancel(999));

  scheduler.unregister_campaign(a->id);
  scheduler.unregister_campaign(b->id);
  EXPECT_EQ(scheduler.active_count(), 0u);
  EXPECT_EQ(scheduler.total_count(), 2u);
}

TEST(CampaignSchedulerTest, CancelSessionOnlyHitsThatSession) {
  CampaignScheduler scheduler(1);
  const auto mine = scheduler.register_campaign(1, 5);
  const auto theirs = scheduler.register_campaign(2, 5);
  scheduler.cancel_session(1);
  EXPECT_EQ(mine->control.load(), static_cast<int>(SweepControl::kCancel));
  EXPECT_EQ(theirs->control.load(), static_cast<int>(SweepControl::kRun));
}

TEST(CampaignSchedulerTest, DrainAllCoversCurrentAndFutureCampaigns) {
  CampaignScheduler scheduler(1);
  const auto before = scheduler.register_campaign(1, 5);
  scheduler.drain_all();
  EXPECT_EQ(before->control.load(), static_cast<int>(SweepControl::kDrain));

  const auto after = scheduler.register_campaign(1, 5);
  EXPECT_EQ(after->control.load(), static_cast<int>(SweepControl::kDrain));

  // Drain does not overwrite a cancel.
  const auto cancelled = scheduler.register_campaign(1, 5);
  cancelled->control.store(static_cast<int>(SweepControl::kCancel));
  scheduler.drain_all();
  EXPECT_EQ(cancelled->control.load(),
            static_cast<int>(SweepControl::kCancel));
}

TEST(CampaignSchedulerTest, ZeroJobsFollowTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int jobs = CampaignScheduler(0).jobs();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(jobs, 1);
}

}  // namespace
}  // namespace svc
}  // namespace hars
