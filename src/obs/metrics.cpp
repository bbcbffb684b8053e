#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/alloc_guard.hpp"

namespace hars {
namespace obs {

namespace detail {

constinit thread_local ThreadShard* tls = nullptr;

std::atomic<std::uint64_t> g_attach_epoch{kDetachedEpoch};

void hist_observe_slow(ThreadShard* shard, std::int32_t hist, double value) {
  const HistDef* def = shard->hists[static_cast<std::size_t>(hist)];
  std::int32_t b = 0;
  const std::int32_t last = def->num_buckets - 1;  // +Inf bucket.
  while (b < last && value > def->bounds[static_cast<std::size_t>(b)]) ++b;
  // Single-writer shard: relaxed load+store, not an atomic RMW (see
  // counter_add in the header).
  const auto bump = [](std::atomic<std::uint64_t>& slot) {
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  };
  bump(shard->buckets[def->first_bucket + b]);
  std::atomic<double>& sum = shard->hist_sum[hist];
  sum.store(sum.load(std::memory_order_relaxed) + value,
            std::memory_order_relaxed);
  bump(shard->hist_count[hist]);
}

namespace {

/// Owns the thread's shard; the destructor folds it into the retired
/// accumulators so exited worker threads keep their counts. Safe because
/// the registry is leaked (never destroyed before any thread exits).
struct ShardOwner {
  std::unique_ptr<ThreadShard> shard;
  ~ShardOwner();
};

thread_local ShardOwner t_owner;

}  // namespace
}  // namespace detail

struct MetricsRegistry::Impl {
  std::mutex mu;

  struct CounterDef {
    std::string name, help;
  };
  struct GaugeDef {
    std::string name, help;
  };
  struct HistMeta {
    std::string name, help;
    detail::HistDef* def = nullptr;
  };

  std::vector<CounterDef> counters;
  std::vector<GaugeDef> gauges;
  std::vector<HistMeta> hists;
  std::deque<detail::HistDef> hist_defs;  ///< Address-stable storage.
  std::int32_t total_buckets = 0;

  /// (kind, index-within-kind) in registration order, for snapshots.
  std::vector<std::pair<MetricKind, std::int32_t>> order;
  std::unordered_map<std::string, std::pair<MetricKind, std::int32_t>> by_name;

  /// Bumped on every registration; shards rebuilt lazily on mismatch.
  /// Atomic so ensure_thread_registered() can check staleness without
  /// the mutex (all writes happen under it).
  std::atomic<std::uint64_t> layout_epoch{0};

  // Retired accumulators: counts of threads that detached or exited.
  std::vector<std::uint64_t> retired_counters;
  std::vector<std::uint64_t> retired_buckets;
  std::vector<double> retired_hist_sum;
  std::vector<std::uint64_t> retired_hist_count;

  std::vector<double> gauge_values;

  std::vector<detail::ThreadShard*> live;  ///< Currently attached shards.

  /// Folds `shard` into the retired accumulators. Caller holds mu. The
  /// shard's layout is always a prefix of the current layout (defs are
  /// append-only), so indices line up.
  void retire(const detail::ThreadShard& shard) {
    grow_retired();
    for (std::int32_t i = 0; i < shard.num_counters; ++i) {
      retired_counters[static_cast<std::size_t>(i)] +=
          shard.counters[i].load(std::memory_order_relaxed);
    }
    for (std::int32_t h = 0; h < shard.num_hists; ++h) {
      const detail::HistDef* def = shard.hists[static_cast<std::size_t>(h)];
      for (std::int32_t b = 0; b < def->num_buckets; ++b) {
        retired_buckets[static_cast<std::size_t>(def->first_bucket + b)] +=
            shard.buckets[def->first_bucket + b].load(std::memory_order_relaxed);
      }
      retired_hist_sum[static_cast<std::size_t>(h)] +=
          shard.hist_sum[h].load(std::memory_order_relaxed);
      retired_hist_count[static_cast<std::size_t>(h)] +=
          shard.hist_count[h].load(std::memory_order_relaxed);
    }
  }

  void grow_retired() {
    retired_counters.resize(counters.size(), 0);
    retired_buckets.resize(static_cast<std::size_t>(total_buckets), 0);
    retired_hist_sum.resize(hists.size(), 0.0);
    retired_hist_count.resize(hists.size(), 0);
    gauge_values.resize(gauges.size(), 0.0);
  }

  void unregister(detail::ThreadShard* shard) {
    live.erase(std::remove(live.begin(), live.end(), shard), live.end());
  }

  /// Publishes the epoch threads must be attached under (see
  /// detail::g_attach_epoch): the current layout epoch when the registry
  /// is enabled, kDetachedEpoch when it is not.
  void publish_epoch(bool enabled) {
    detail::g_attach_epoch.store(
        enabled ? layout_epoch.load(std::memory_order_relaxed)
                : detail::kDetachedEpoch,
        std::memory_order_relaxed);
  }
};

namespace detail {
namespace {

ShardOwner::~ShardOwner() {
  if (shard != nullptr) MetricsRegistry::instance().detach_current_thread();
}

}  // namespace
}  // namespace detail

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

void MetricsRegistry::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_release);
  impl_->publish_epoch(enabled);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked deliberately; see the header.
  static MetricsRegistry* reg = [] {
    allocg::AllowScope allow("obs registry construction");
    return new MetricsRegistry();
  }();
  return *reg;
}

CounterId MetricsRegistry::register_counter(std::string name,
                                            std::string help) {
  allocg::AllowScope allow("obs metric registration");
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.by_name.find(name);
  if (it != im.by_name.end()) {
    if (it->second.first != MetricKind::kCounter) {
      throw std::logic_error("obs: '" + name + "' registered with other kind");
    }
    return CounterId{it->second.second};
  }
  const std::int32_t idx = static_cast<std::int32_t>(im.counters.size());
  im.counters.push_back({name, std::move(help)});
  im.by_name.emplace(std::move(name), std::pair{MetricKind::kCounter, idx});
  im.order.emplace_back(MetricKind::kCounter, idx);
  ++im.layout_epoch;
  im.publish_epoch(enabled());
  return CounterId{idx};
}

GaugeId MetricsRegistry::register_gauge(std::string name, std::string help) {
  allocg::AllowScope allow("obs metric registration");
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.by_name.find(name);
  if (it != im.by_name.end()) {
    if (it->second.first != MetricKind::kGauge) {
      throw std::logic_error("obs: '" + name + "' registered with other kind");
    }
    return GaugeId{it->second.second};
  }
  const std::int32_t idx = static_cast<std::int32_t>(im.gauges.size());
  im.gauges.push_back({name, std::move(help)});
  im.gauge_values.resize(im.gauges.size(), 0.0);
  im.by_name.emplace(std::move(name), std::pair{MetricKind::kGauge, idx});
  im.order.emplace_back(MetricKind::kGauge, idx);
  ++im.layout_epoch;
  im.publish_epoch(enabled());
  return GaugeId{idx};
}

HistId MetricsRegistry::register_histogram(std::string name,
                                           std::vector<double> bounds,
                                           std::string help) {
  if (bounds.empty()) {
    throw std::logic_error("obs: histogram '" + name + "' needs bounds");
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i]) || (i > 0 && bounds[i] <= bounds[i - 1])) {
      throw std::logic_error("obs: histogram '" + name +
                             "' bounds must be finite and ascending");
    }
  }
  allocg::AllowScope allow("obs metric registration");
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.by_name.find(name);
  if (it != im.by_name.end()) {
    if (it->second.first != MetricKind::kHistogram) {
      throw std::logic_error("obs: '" + name + "' registered with other kind");
    }
    const Impl::HistMeta& meta =
        im.hists[static_cast<std::size_t>(it->second.second)];
    if (meta.def->bounds != bounds) {
      throw std::logic_error("obs: histogram '" + name +
                             "' re-registered with different bounds");
    }
    return HistId{it->second.second};
  }
  const std::int32_t idx = static_cast<std::int32_t>(im.hists.size());
  im.hist_defs.push_back({});
  detail::HistDef& def = im.hist_defs.back();
  def.bounds = std::move(bounds);
  def.first_bucket = im.total_buckets;
  def.num_buckets = static_cast<std::int32_t>(def.bounds.size()) + 1;
  im.total_buckets += def.num_buckets;
  im.hists.push_back({name, std::move(help), &def});
  im.by_name.emplace(std::move(name), std::pair{MetricKind::kHistogram, idx});
  im.order.emplace_back(MetricKind::kHistogram, idx);
  ++im.layout_epoch;
  im.publish_epoch(enabled());
  return HistId{idx};
}

void MetricsRegistry::gauge_set(GaugeId id, double value) {
  if (!enabled() || id.v < 0) return;
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  if (static_cast<std::size_t>(id.v) < im.gauge_values.size()) {
    im.gauge_values[static_cast<std::size_t>(id.v)] = value;
  }
}

void MetricsRegistry::attach_current_thread() {
  Impl& im = *impl_;
  allocg::AllowScope allow("obs thread shard growth");
  std::lock_guard<std::mutex> lock(im.mu);
  detail::ShardOwner& owner = detail::t_owner;
  if (owner.shard != nullptr &&
      owner.shard->layout_epoch == im.layout_epoch) {
    detail::tls = owner.shard.get();
    return;
  }
  if (owner.shard != nullptr) {
    // Layout grew since this shard was built: fold its counts into the
    // retired accumulators and rebuild against the new layout.
    im.retire(*owner.shard);
    im.unregister(owner.shard.get());
    detail::tls = nullptr;
    owner.shard.reset();
  }
  auto shard = std::make_unique<detail::ThreadShard>();
  shard->num_counters = static_cast<std::int32_t>(im.counters.size());
  shard->counters =
      std::make_unique<std::atomic<std::uint64_t>[]>(im.counters.size());
  for (std::size_t i = 0; i < im.counters.size(); ++i) shard->counters[i] = 0;
  shard->num_hists = static_cast<std::int32_t>(im.hists.size());
  shard->buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(im.total_buckets));
  for (std::int32_t i = 0; i < im.total_buckets; ++i) shard->buckets[i] = 0;
  shard->hist_sum = std::make_unique<std::atomic<double>[]>(im.hists.size());
  shard->hist_count =
      std::make_unique<std::atomic<std::uint64_t>[]>(im.hists.size());
  shard->hists.reserve(im.hists.size());
  for (std::size_t h = 0; h < im.hists.size(); ++h) {
    shard->hist_sum[h] = 0.0;
    shard->hist_count[h] = 0;
    shard->hists.push_back(im.hists[h].def);
  }
  shard->layout_epoch = im.layout_epoch;
  shard->tag = thread_tag();
  im.live.push_back(shard.get());
  owner.shard = std::move(shard);
  detail::tls = owner.shard.get();
}

std::uint64_t MetricsRegistry::layout_epoch() const {
  return impl_->layout_epoch.load(std::memory_order_acquire);
}

void MetricsRegistry::detach_current_thread() {
  Impl& im = *impl_;
  detail::ShardOwner& owner = detail::t_owner;
  if (owner.shard == nullptr) {
    detail::tls = nullptr;
    return;
  }
  allocg::AllowScope allow("obs thread shard growth");
  std::lock_guard<std::mutex> lock(im.mu);
  im.retire(*owner.shard);
  im.unregister(owner.shard.get());
  detail::tls = nullptr;
  owner.shard.reset();
}

void MetricsRegistry::reset() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  im.grow_retired();
  std::fill(im.retired_counters.begin(), im.retired_counters.end(), 0);
  std::fill(im.retired_buckets.begin(), im.retired_buckets.end(), 0);
  std::fill(im.retired_hist_sum.begin(), im.retired_hist_sum.end(), 0.0);
  std::fill(im.retired_hist_count.begin(), im.retired_hist_count.end(), 0);
  std::fill(im.gauge_values.begin(), im.gauge_values.end(), 0.0);
  for (detail::ThreadShard* shard : im.live) {
    for (std::int32_t i = 0; i < shard->num_counters; ++i) {
      shard->counters[i].store(0, std::memory_order_relaxed);
    }
    for (std::int32_t h = 0; h < shard->num_hists; ++h) {
      const detail::HistDef* def = shard->hists[static_cast<std::size_t>(h)];
      for (std::int32_t b = 0; b < def->num_buckets; ++b) {
        shard->buckets[def->first_bucket + b].store(0,
                                                    std::memory_order_relaxed);
      }
      shard->hist_sum[h].store(0.0, std::memory_order_relaxed);
      shard->hist_count[h].store(0, std::memory_order_relaxed);
    }
  }
}

MetricsSnapshot MetricsRegistry::take_snapshot() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  im.grow_retired();

  std::vector<std::uint64_t> counters = im.retired_counters;
  std::vector<std::uint64_t> buckets = im.retired_buckets;
  std::vector<double> hist_sum = im.retired_hist_sum;
  std::vector<std::uint64_t> hist_count = im.retired_hist_count;
  for (const detail::ThreadShard* shard : im.live) {
    for (std::int32_t i = 0; i < shard->num_counters; ++i) {
      counters[static_cast<std::size_t>(i)] +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::int32_t h = 0; h < shard->num_hists; ++h) {
      const detail::HistDef* def = shard->hists[static_cast<std::size_t>(h)];
      for (std::int32_t b = 0; b < def->num_buckets; ++b) {
        buckets[static_cast<std::size_t>(def->first_bucket + b)] +=
            shard->buckets[def->first_bucket + b].load(
                std::memory_order_relaxed);
      }
      hist_sum[static_cast<std::size_t>(h)] +=
          shard->hist_sum[h].load(std::memory_order_relaxed);
      hist_count[static_cast<std::size_t>(h)] +=
          shard->hist_count[h].load(std::memory_order_relaxed);
    }
  }

  MetricsSnapshot snap;
  snap.metrics.reserve(im.order.size());
  for (const auto& [kind, idx] : im.order) {
    MetricValue v;
    v.kind = kind;
    const std::size_t i = static_cast<std::size_t>(idx);
    switch (kind) {
      case MetricKind::kCounter:
        v.name = im.counters[i].name;
        v.help = im.counters[i].help;
        v.counter = counters[i];
        break;
      case MetricKind::kGauge:
        v.name = im.gauges[i].name;
        v.help = im.gauges[i].help;
        v.gauge = im.gauge_values[i];
        break;
      case MetricKind::kHistogram: {
        const Impl::HistMeta& meta = im.hists[i];
        v.name = meta.name;
        v.help = meta.help;
        v.bounds = meta.def->bounds;
        v.buckets.assign(
            buckets.begin() + meta.def->first_bucket,
            buckets.begin() + meta.def->first_bucket + meta.def->num_buckets);
        v.sum = hist_sum[i];
        v.count = hist_count[i];
        break;
      }
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

namespace detail {
void ensure_thread_registered_slow() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  if (!reg.enabled()) {
    if (detail::tls != nullptr) reg.detach_current_thread();
    return;
  }
  reg.attach_current_thread();
}
}  // namespace detail

void gauge_set(GaugeId id, double value) {
  MetricsRegistry::instance().gauge_set(id, value);
}

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double histogram_quantile(const MetricValue& hist, double q) {
  if (hist.count == 0 || hist.buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(hist.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    const std::uint64_t in_bucket = hist.buckets[b];
    if (static_cast<double>(cumulative + in_bucket) >= target &&
        in_bucket > 0) {
      const double lo = b == 0 ? 0.0 : hist.bounds[b - 1];
      if (b >= hist.bounds.size()) return lo;  // +Inf bucket: lower bound.
      const double hi = hist.bounds[b];
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return hist.bounds.empty() ? 0.0 : hist.bounds.back();
}

}  // namespace obs
}  // namespace hars
