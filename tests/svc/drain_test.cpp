// The graceful-drain contract, engine level and daemon level: in-flight
// cases finish, unstarted cases never run, sink output is a clean
// contiguous prefix of the full campaign, a drained summary carries the
// resume cursor, new submissions are rejected with a typed error, and
// resume(start_case = emitted_through) concatenates to the full run
// with no lost and no duplicated records.
//
// A drain must land mid-campaign however fast a case runs, so the
// campaign's variants pass through a gate: while armed, every case but
// the first waits at its start until the test has seen the drain take
// effect. The first case's record triggers the drain; the cases already
// waiting are in flight and finish, and the rest never start.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/variant_registry.hpp"
#include "svc/campaign_scheduler.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"

namespace hars {
namespace svc {
namespace {

/// Holds cases at their start. While armed, a case whose seed is not
/// `pass_seed` waits until release(); disarmed, every case passes.
/// Only one variant is gated, and the passing case is its first, so no
/// case waits ahead of the first record in emission order.
class CaseGate {
 public:
  void arm(std::uint64_t pass_seed) {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
    pass_seed_ = pass_seed;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      armed_ = false;
    }
    cv_.notify_all();
  }
  void enter(std::uint64_t seed) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (seed == pass_seed_) return;
    cv_.wait(lock, [&] { return !armed_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  std::uint64_t pass_seed_ = 0;
};

CaseGate& gate() {
  static CaseGate instance;
  return instance;
}

/// Releases the gate on every exit path, so no pool worker stays parked
/// when an assertion returns early.
struct GateRelease {
  ~GateRelease() { gate().release(); }
};

/// Registers "gated:<name>": the named variant behind the case gate.
std::string gated(const std::string& name) {
  const std::string gated_name = "gated:" + name;
  VariantRegistry& registry = VariantRegistry::instance();
  if (registry.find(gated_name) == nullptr) {
    const VariantEntry* entry = registry.find(name);
    const VariantFactory real = entry->factory;
    registry.register_variant(gated_name, entry->traits,
                              [real](const VariantSetup& setup) {
                                gate().enter(setup.spec.seed);
                                return real(setup);
                              });
  }
  return gated_name;
}

CampaignRequest drain_campaign() {
  CampaignRequest campaign;
  campaign.benches = {"SW", "BO"};
  campaign.variants = {"Baseline", gated("HARS-E")};
  campaign.fractions = {0.80, 0.85, 0.90, 0.95};
  campaign.distances = {1, 2};
  campaign.duration_sec = 120.0;  // 32 cases.
  campaign.derive_seeds = true;   // Distinct seeds: the gate keys on them.
  return campaign;
}

SweepSpec spec_of(const CampaignRequest& campaign) {
  SweepSpec spec;
  std::size_t cases = 0;
  EXPECT_EQ(expand_sweep_campaign(campaign, &spec, &cases), "");
  return spec;
}

std::string run_local(const SweepSpec& spec, std::size_t start_case,
                      const std::atomic<int>* control,
                      SweepReport* report_out) {
  std::ostringstream out;
  CsvSink sink(out);
  SweepOptions options;
  options.jobs = 2;
  options.keep_results = false;
  options.control = control;
  options.start_case = start_case;
  SweepEngine engine(options);
  engine.add_sink(sink);
  SweepReport report = engine.run(spec);
  if (report_out != nullptr) *report_out = std::move(report);
  return out.str();
}

/// Arms the gate so that the first gated case runs freely. (The
/// Baseline cases fail validation at once — Baseline takes no search
/// distance — and emit no records.)
void arm_gate(const SweepSpec& spec) {
  for (const SweepCase& c : spec.expand()) {
    if (c.label("variant") == gated("HARS-E")) {
      gate().arm(c.seed);
      return;
    }
  }
  FAIL() << "the campaign has no gated case";
}

/// Waits (bounded) until every campaign the daemon runs is draining.
void await_draining(ServiceDaemon& daemon) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::vector<CampaignStatus> rows = daemon.scheduler().status();
    bool draining = !rows.empty();
    for (const CampaignStatus& row : rows) draining &= row.state == "draining";
    if (draining) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "the daemon never started draining";
}

/// Runs serve() on its own thread and joins it on every exit path: a
/// failed ASSERT returns early, and destroying a joinable std::thread
/// would call std::terminate.
class ServerThread {
 public:
  explicit ServerThread(ServiceDaemon& daemon)
      : daemon_(daemon), thread_([&daemon] { daemon.serve(); }) {}
  ~ServerThread() {
    if (!thread_.joinable()) return;
    daemon_.stop();
    thread_.join();
  }
  /// Waits for serve() to return on its own.
  void join() { thread_.join(); }

 private:
  ServiceDaemon& daemon_;
  std::thread thread_;
};

/// Strips the header row (a resumed sink re-emits it).
std::string body_of(const std::string& csv) {
  const std::size_t eol = csv.find('\n');
  return eol == std::string::npos ? std::string() : csv.substr(eol + 1);
}

TEST(DrainContract, EngineDrainEmitsContiguousPrefixAndResumeCompletes) {
  const SweepSpec spec = spec_of(drain_campaign());
  const std::string full = run_local(spec, 0, nullptr, nullptr);

  // Flip to kDrain as soon as the first record reaches the sink, then
  // open the gate: the cases waiting at it finish, the rest never run.
  std::atomic<int> control{static_cast<int>(SweepControl::kRun)};
  class DrainOnFirstRecord final : public ResultSink {
   public:
    explicit DrainOnFirstRecord(std::atomic<int>& control)
        : control_(control) {}
    void write(const Record&) override {
      control_.store(static_cast<int>(SweepControl::kDrain));
      gate().release();
    }

   private:
    std::atomic<int>& control_;
  } trigger(control);

  std::ostringstream out;
  CsvSink sink(out);
  SweepOptions options;
  options.jobs = 2;
  options.keep_results = false;
  options.control = &control;
  SweepEngine engine(options);
  engine.add_sink(sink);
  engine.add_sink(trigger);
  GateRelease release;
  arm_gate(spec);
  const SweepReport drained = engine.run(spec);

  EXPECT_EQ(drained.status, "drained");
  EXPECT_EQ(drained.outcomes.size(), 32u);
  ASSERT_GT(drained.emitted_through, 0u);
  ASSERT_LT(drained.emitted_through, 32u);
  // Emitted records are byte-wise the full run's prefix.
  EXPECT_EQ(out.str(), full.substr(0, out.str().size()));

  // Resume from the cursor: the concatenation is exactly the full run —
  // nothing lost, nothing duplicated.
  SweepReport resumed;
  const std::string tail =
      run_local(spec, drained.emitted_through, nullptr, &resumed);
  EXPECT_EQ(resumed.status, "complete");
  EXPECT_EQ(resumed.emitted_through, 32u);
  EXPECT_EQ(out.str() + body_of(tail), full);
}

TEST(DrainContract, EngineCancelReportsCancelled) {
  const SweepSpec spec = spec_of(drain_campaign());
  std::atomic<int> control{static_cast<int>(SweepControl::kCancel)};
  SweepReport report;
  const std::string csv = run_local(spec, 0, &control, &report);
  EXPECT_EQ(report.status, "cancelled");
  EXPECT_EQ(report.emitted_through, 0u);
  // Header-only or fully empty: no case records.
  EXPECT_EQ(body_of(csv), "");
}

TEST(DrainContract, DaemonDrainVerbMidCampaign) {
  DaemonConfig config;
  config.listen = Address::parse("tcp:127.0.0.1:0");
  config.jobs = 2;
  ServiceDaemon daemon(config);
  ServerThread server(daemon);

  const CampaignRequest campaign = drain_campaign();
  const std::string full = run_local(spec_of(campaign), 0, nullptr, nullptr);

  std::ostringstream out;
  SummaryInfo summary;
  {
    // Client A submits; its record callback triggers a daemon-wide
    // drain (via a second connection) as soon as the stream starts, and
    // opens the gate once the drain has reached the campaign.
    GateRelease release;
    arm_gate(spec_of(campaign));
    ServiceClient submitter(daemon.address());
    ServiceClient controller(daemon.address());
    CsvSink sink(out);
    bool drain_sent = false;
    const SubmitOutcome outcome =
        submitter.submit_sweep(campaign, [&](const Record& record) {
          sink.write(record);
          if (!drain_sent) {
            drain_sent = true;
            EXPECT_TRUE(controller.drain());
            await_draining(daemon);
            gate().release();
          }
        });

    ASSERT_TRUE(outcome.ok);
    summary = outcome.summary;
    EXPECT_EQ(summary.status, "drained");
    EXPECT_EQ(summary.cases, 32u);
    EXPECT_GT(summary.emitted_through, 0u);
    EXPECT_LT(summary.emitted_through, 32u);
    // The streamed prefix is byte-identical to the local run's prefix.
    EXPECT_EQ(out.str(), full.substr(0, out.str().size()));

    // A draining daemon rejects new submissions with the typed error.
    const SubmitOutcome rejected =
        submitter.submit_sweep(campaign, [](const Record&) {});
    EXPECT_FALSE(rejected.ok);
    ASSERT_TRUE(rejected.error.has_value());
    EXPECT_EQ(rejected.error->code, ErrorCode::kDraining);
  }  // Clients disconnect; a drained serve() returns on its own.
  server.join();

  // Resume locally from the summary's cursor: concatenation == full run.
  SweepReport resumed;
  const std::string tail =
      run_local(spec_of(campaign), summary.emitted_through, nullptr, &resumed);
  EXPECT_EQ(resumed.status, "complete");
  EXPECT_EQ(out.str() + body_of(tail), full);
}

TEST(DrainContract, SignalFlagTriggersDrainAndServeReturns) {
  // The SIGTERM path without a signal: hars_simd's handler just sets a
  // lock-free atomic flag that serve() polls. Here another thread plays
  // the signal handler, which is exactly why the flag is an atomic and
  // not a volatile sig_atomic_t.
  static std::atomic<std::sig_atomic_t> flag{0};
  flag.store(0, std::memory_order_relaxed);
  DaemonConfig config;
  config.listen = Address::parse("tcp:127.0.0.1:0");
  config.jobs = 2;
  config.drain_signal = &flag;
  ServiceDaemon daemon(config);
  ServerThread server(daemon);

  const CampaignRequest campaign = drain_campaign();
  {
    GateRelease release;
    arm_gate(spec_of(campaign));
    ServiceClient submitter(daemon.address());
    bool signalled = false;
    const SubmitOutcome outcome =
        submitter.submit_sweep(campaign, [&](const Record&) {
          if (!signalled) {
            signalled = true;
            flag.store(1, std::memory_order_relaxed);  // "SIGTERM"
            await_draining(daemon);
            gate().release();
          }
        });
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.summary.status, "drained");
    EXPECT_LT(outcome.summary.emitted_through, 32u);
  }  // Client disconnects; a drained serve() must now return on its own.
  server.join();

  // After the drain, new connections are refused outright.
  EXPECT_THROW(ServiceClient{daemon.address()}, std::runtime_error);
}

}  // namespace
}  // namespace svc
}  // namespace hars
