// MetricsRegistry: the zero-cost telemetry core.
//
// Counters, gauges and fixed-bucket histograms are registered once
// (cold; names are stable for the life of the process) and written from
// the hot path through typed ids. Writes go to thread-local shards of
// relaxed atomics, so the steady-state cost of a counter bump is one
// thread-local load, one bounds check and one relaxed fetch_add — no
// locks, no allocation, no sharing between threads. take_snapshot()
// merges the live shards with the accumulators of exited threads under
// the registry mutex.
//
// Runtime gating: the registry is compiled in unconditionally but
// disabled by default. A thread only ever observes metrics after it
// called ensure_thread_registered() while the registry was enabled;
// calling it while disabled *detaches* the thread (its counts are
// folded into the retired accumulators), so a disabled run's hot path
// is a single thread-local null check per write. Records produced by
// the simulator are bit-identical either way — telemetry observes, it
// never feeds back.
//
// Allocation contract: registration, thread attach and snapshotting
// allocate (under named allocg::AllowScopes where they can run inside a
// guarded region); the write fast path (counter_add / gauge_set /
// hist_observe) never does. tools/hars_lint enforces that only the
// write-path entry points appear inside HARS_HOT bodies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hars {
namespace obs {

/// Typed handles returned by registration; default-constructed ids are
/// inert (writes through them are dropped).
struct CounterId {
  std::int32_t v = -1;
};
struct GaugeId {
  std::int32_t v = -1;
};
struct HistId {
  std::int32_t v = -1;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One merged metric in a snapshot. Histograms carry the finite upper
/// bounds plus an implicit +Inf bucket: buckets.size() == bounds.size()+1
/// and buckets[i] counts observations in (bounds[i-1], bounds[i]]
/// (le semantics, non-cumulative).
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;                ///< kCounter
  double gauge = 0.0;                       ///< kGauge
  std::vector<double> bounds;               ///< kHistogram
  std::vector<std::uint64_t> buckets;       ///< kHistogram, +Inf last
  double sum = 0.0;                         ///< kHistogram
  std::uint64_t count = 0;                  ///< kHistogram
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< Registration order.
  /// The metric named `name`, or nullptr.
  const MetricValue* find(std::string_view name) const;
};

/// Quantile estimate (q in [0,1]) from a snapshot histogram, linearly
/// interpolated within the winning bucket; the +Inf bucket reports its
/// lower bound. Returns 0 for an empty histogram.
double histogram_quantile(const MetricValue& hist, double q);

namespace detail {

/// Bucket layout of one histogram, captured at registration; lives in a
/// deque inside the registry so the address is stable for shards.
struct HistDef {
  std::vector<double> bounds;    ///< Finite upper bounds, ascending.
  std::int32_t first_bucket = 0; ///< Offset into the flattened buckets.
  std::int32_t num_buckets = 0;  ///< bounds.size() + 1 (+Inf).
};

/// Per-thread metric shard. All slots are relaxed atomics so
/// take_snapshot() may read them while the owner keeps writing.
struct ThreadShard {
  std::unique_ptr<std::atomic<std::uint64_t>[]> counters;
  std::int32_t num_counters = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  ///< Flattened.
  std::unique_ptr<std::atomic<double>[]> hist_sum;
  std::unique_ptr<std::atomic<std::uint64_t>[]> hist_count;
  std::int32_t num_hists = 0;
  std::vector<const HistDef*> hists;  ///< Per-histogram layout.
  std::uint64_t layout_epoch = 0;     ///< Registry epoch this was built for.
  std::uint32_t tag = 0;              ///< thread_tag() of the owner.
};

/// Shard of the calling thread; nullptr until ensure_thread_registered()
/// attaches one (and again after it detaches). constinit on both the
/// declaration and the definition lets every reader load the slot
/// directly instead of through a TLS init wrapper, so reads are safe
/// from any point including static init.
extern constinit thread_local ThreadShard* tls;

/// The layout epoch threads must be attached under, or kDetachedEpoch
/// when the registry is disabled. Published by set_enabled()/register_*
/// so ensure_thread_registered()'s per-tick check is one relaxed load.
constexpr std::uint64_t kDetachedEpoch = ~std::uint64_t{0};
extern std::atomic<std::uint64_t> g_attach_epoch;

void hist_observe_slow(ThreadShard* shard, std::int32_t hist, double value);
void ensure_thread_registered_slow();

}  // namespace detail

class MetricsRegistry {
 public:
  /// The process-wide registry. Leaky singleton: constructed on first
  /// use, never destroyed, so thread-exit hooks and static-destruction
  /// order can never observe a dead registry.
  static MetricsRegistry& instance();

  // --- Registration (cold; idempotent by name) ---
  // Re-registering an existing name returns the original id; a kind
  // mismatch or (for histograms) a bounds mismatch throws
  // std::logic_error. Bounds must be finite, ascending and non-empty.
  CounterId register_counter(std::string name, std::string help);
  GaugeId register_gauge(std::string name, std::string help);
  HistId register_histogram(std::string name, std::vector<double> bounds,
                            std::string help);

  // --- Runtime gate ---
  /// Also publishes detail::g_attach_epoch so attached threads notice
  /// the change on their next ensure_thread_registered(). Cold.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Zeroes every counter/histogram slot (live shards and retired
  /// accumulators) and every gauge. Call at a quiescent point.
  void reset();

  /// Merges retired accumulators with every live shard into a snapshot,
  /// in registration order. Cold: locks the registry and allocates.
  MetricsSnapshot take_snapshot();

  /// Gauges are unsharded (their writes are cold): last write wins.
  void gauge_set(GaugeId id, double value);

  // --- Thread attach/detach (called via free functions below) ---
  void attach_current_thread();
  void detach_current_thread();

  /// Current registration epoch (bumped by every register_*). Lock-free;
  /// ensure_thread_registered() compares it against the calling thread's
  /// shard to skip the attach mutex on the steady-state path.
  std::uint64_t layout_epoch() const;

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // Leaky by design.
  struct Impl;
  Impl* impl_;
  std::atomic<bool> enabled_{false};
};

/// True when writes are live. Single acquire load; callers on the hot
/// path should prefer the tls null check in counter_add instead.
inline bool enabled() { return MetricsRegistry::instance().enabled(); }

/// Attaches the calling thread to the registry (allocating its shard
/// under allocg::AllowScope("obs thread shard growth")) when telemetry
/// is enabled; detaches it — folding its counts into the retired
/// accumulators — when disabled. Call at a cold point before entering
/// guarded regions (e.g. each SimEngine::run_until pair, worker-loop
/// entry).
/// Steady state (attached-and-current or detached-and-disabled) is one
/// thread-local load plus one relaxed atomic compare.
inline void ensure_thread_registered() {
  detail::ThreadShard* s = detail::tls;
  const std::uint64_t want =
      detail::g_attach_epoch.load(std::memory_order_relaxed);
  if ((s != nullptr ? s->layout_epoch : detail::kDetachedEpoch) == want) {
    return;
  }
  detail::ensure_thread_registered_slow();
}

/// True when the calling thread is attached, i.e. its writes are live.
/// One thread-local load; gates clock reads that only feed telemetry.
inline bool thread_attached() { return detail::tls != nullptr; }

/// Hot-path write: thread-local load + bounds check + relaxed add.
/// Drops silently when the thread is not attached or the id is inert.
/// Single-writer: only the owning thread writes its shard, so a relaxed
/// load+store (a plain add in machine code) replaces the much costlier
/// lock-prefixed fetch_add; snapshot readers still see a torn-free value.
inline void counter_add(CounterId id, std::uint64_t n = 1) {
  detail::ThreadShard* s = detail::tls;
  if (s == nullptr || id.v < 0 || id.v >= s->num_counters) return;
  std::atomic<std::uint64_t>& slot = s->counters[id.v];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

/// Hot-path write: the bucket scan is out-of-line but allocation-free.
inline void hist_observe(HistId id, double value) {
  detail::ThreadShard* s = detail::tls;
  if (s == nullptr || id.v < 0 || id.v >= s->num_hists) return;
  detail::hist_observe_slow(s, id.v, value);
}

/// Cold write (locks the registry); drops when disabled or inert.
void gauge_set(GaugeId id, double value);

/// Small dense per-thread tag (0, 1, 2, ... in first-use order), used
/// as the `tid` of trace spans. Stable for the life of the thread.
std::uint32_t thread_tag();

}  // namespace obs
}  // namespace hars
