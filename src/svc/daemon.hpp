// ServiceDaemon: the hars_simd simulation-as-a-service core.
//
// One daemon = one listener + one SessionManager (admission) + one
// CampaignScheduler (shared TaskPool) + one shared cache tier
// (the process-wide OnceCaches, warm across requests). Each accepted
// connection gets a handler thread (reads request frames), a writer
// thread (drains the connection's bounded FrameQueue in batches), and
// one runner thread per in-flight campaign — campaigns stream records
// through the queue while the handler keeps serving status/cancel.
//
// Determinism: a campaign executes through the exact SweepSpec /
// ExperimentBuilder path the hars_sim CLI uses, on a SweepEngine with
// ordered emission, and every record cell crosses the wire verbatim —
// so the bytes a client writes are identical to a local run for any
// worker count and any number of concurrent clients.
//
// Drain: begin_drain() (SIGTERM) stops accepting, makes the session
// layer reject new submissions with kDraining, and flips every live
// campaign's control word to kDrain. In-flight cases finish, each
// campaign emits a terminal summary with status "drained" and the
// emitted_through resume cursor, and serve() returns once every client
// disconnects — or after drain_timeout_sec, when remaining connections
// are force-closed.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/campaign_scheduler.hpp"
#include "svc/net.hpp"
#include "svc/session.hpp"

namespace hars {
namespace svc {

struct DaemonConfig {
  Address listen;  ///< Default: loopback TCP, ephemeral port.
  /// Shared pool workers; <= 0 selects hardware concurrency.
  int jobs = 1;
  SessionLimits limits;
  double drain_timeout_sec = 30.0;
  /// Per-connection send-queue bound, in frames (the backpressure knob).
  std::size_t send_queue_frames = 256;
  /// Polled by serve() every accept timeout; a signal handler sets it
  /// to request a graceful drain. Lock-free atomic stores are
  /// async-signal-safe, and unlike volatile sig_atomic_t this is also
  /// race-free when another *thread* sets the flag (as tests do).
  const std::atomic<std::sig_atomic_t>* drain_signal = nullptr;
};

class ServiceDaemon {
 public:
  /// Binds the listener and enables the metrics registry; throws
  /// std::runtime_error when the address cannot be bound.
  explicit ServiceDaemon(DaemonConfig config);
  ~ServiceDaemon();

  /// The bound address (resolves an ephemeral TCP port).
  const Address& address() const { return listener_.bound_address(); }

  /// Accept loop; blocks until a drain completes or stop() is called.
  void serve();

  /// Requests a graceful drain (thread-safe, idempotent).
  void begin_drain();

  /// Hard stop for tests: cancels campaigns, force-closes connections.
  void stop();

  SessionManager& sessions() { return sessions_; }
  CampaignScheduler& scheduler() { return scheduler_; }
  const DaemonConfig& config() const { return config_; }

  /// Per-connection state; public only so daemon.cpp's file-local
  /// RemoteSink can stream through it.
  struct Connection;

 private:

  void handle_connection(Connection* connection);
  void handle_request(Connection* connection, const std::string& payload);
  void handle_submit(Connection* connection, const Request& request);
  void run_sweep_campaign(Connection* connection, Request request,
                          CampaignScheduler::CampaignPtr campaign,
                          std::shared_ptr<SweepSpec> spec);
  void run_single_campaign(Connection* connection, Request request,
                           CampaignScheduler::CampaignPtr campaign);
  void writer_loop(Connection* connection);
  void force_close_connections();
  void reap_connections(bool join_all);

  DaemonConfig config_;
  Listener listener_;
  SessionManager sessions_;
  CampaignScheduler scheduler_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};

  // Service metrics (scraped via the `metrics` verb) plus plain atomics
  // for the `stats` verb, which must work even when a client disabled
  // the registry.
  obs::CounterId requests_metric_;
  obs::CounterId records_metric_;
  obs::CounterId campaigns_metric_;
  obs::GaugeId sessions_gauge_;
  obs::GaugeId campaigns_gauge_;
  std::atomic<std::uint64_t> records_streamed_{0};
};

}  // namespace svc
}  // namespace hars
