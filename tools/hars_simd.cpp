// hars_simd: the simulation-as-a-service daemon.
//
//   hars_simd --listen tcp:127.0.0.1:7414 --jobs 4
//   hars_simd --listen unix:/tmp/hars.sock --max-clients 8
//
// Serves the length-prefixed JSONL wire protocol (see
// docs/FILE_FORMATS.md, "Wire protocol"): clients submit experiment /
// sweep campaigns, stream result records, scrape Prometheus metrics,
// and query or cancel live campaigns. All campaigns share one
// FIFO task pool and the process-wide calibration / static-optimal
// / baseline-probe caches, so repeated submissions hit a warm tier.
//
// SIGTERM/SIGINT trigger a graceful drain: in-flight cases finish, new
// submissions are rejected with a typed `draining` error, every open
// campaign terminates with a `drained` summary carrying its resume
// cursor, and the process exits once clients disconnect (or after
// --drain-timeout seconds, force-closing stragglers).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "apps/parsec.hpp"
#include "svc/daemon.hpp"
#include "svc/service_cache.hpp"
#include "util/flags.hpp"

namespace {

using namespace hars;

std::atomic<std::sig_atomic_t> g_drain{0};

void on_signal(int) { g_drain.store(1, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  svc::DaemonConfig config;
  config.jobs = 0;
  config.drain_signal = &g_drain;
  bool prewarm = false;
  std::string listen = "tcp:127.0.0.1:7414";
  std::string addr_file;

  flags::Parser cli("hars_simd");
  cli.flag("--listen ADDR", &listen,
           "tcp:HOST:PORT, HOST:PORT, :PORT, unix:PATH or a\n"
           "bare socket path (default tcp:127.0.0.1:7414;\n"
           "port 0 binds an ephemeral port)")
      .flag("--jobs N", &config.jobs,
            "shared pool workers (default 0 = hardware)")
      .flag("--max-clients N", &config.limits.max_clients,
            "concurrent client sessions (default 16)")
      .flag("--max-campaigns N", &config.limits.max_campaigns_per_client,
            "concurrent campaigns per client (default 4)")
      .flag("--max-queued-cases N", &config.limits.max_queued_cases,
            "global queued-case budget (default 1048576)")
      .flag("--drain-timeout SEC", &config.drain_timeout_sec,
            "grace period after SIGTERM before remaining\n"
            "connections are force-closed (default 30)")
      .flag("--send-queue N", &config.send_queue_frames,
            "per-connection send queue bound, frames\n(default 256)")
      .flag("--prewarm", &prewarm,
            "run default calibrations for every PARSEC\n"
            "bench before accepting clients")
      .flag("--addr-file FILE", &addr_file,
            "write the bound address (scripts resolving an\n"
            "ephemeral port)");
  if (const flags::Status status = cli.parse(argc, argv);
      status != flags::Status::kOk) {
    return flags::exit_code(status);
  }
  try {
    config.listen = svc::Address::parse(listen);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad --listen address: %s\n", e.what());
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    svc::ServiceDaemon daemon(config);
    if (prewarm) {
      const std::size_t warmed =
          svc::prewarm_calibration(all_parsec_benchmarks());
      std::printf("prewarmed        %zu calibrations\n", warmed);
    }
    const std::string bound = daemon.address().to_string();
    if (!addr_file.empty()) {
      std::ofstream out(addr_file, std::ios::trunc);
      out << bound << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", addr_file.c_str());
        return 1;
      }
    }
    std::printf("listening        %s (%d jobs, %d clients max)\n",
                bound.c_str(), daemon.scheduler().jobs(),
                daemon.config().limits.max_clients);
    std::fflush(stdout);
    daemon.serve();
    std::printf("drained          %s\n", bound.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hars_simd: %s\n", e.what());
    return 1;
  }
  return 0;
}
