// Keyed compute-once cache, safe for concurrent sweep workers and set-up
// fan-outs.
//
// One map of {state, value} slots under one mutex and one condition
// variable. The (potentially expensive — whole probe simulations)
// computation runs outside the lock while its slot reads kRunning:
// concurrent lookups of different keys compute in parallel, concurrent
// lookups of the same key wait on the condition variable and compute
// exactly once, and everyone observes the same value — which is what
// keeps cached and uncached sweep cases bit-identical. A computation that
// throws resets its slot to kIdle, so exactly one later caller (or one of
// the waiters) recomputes; the slot itself stays, and counts as an entry.
// Slots are never erased, so a reference into the std::map stays valid
// while its computation runs unlocked.
//
// Named caches are observable: constructing an OnceCache with a name
// registers `cache.<name>.hit`, `cache.<name>.miss` counters and a
// `cache.<name>.entries` gauge in the MetricsRegistry (lazily, on first
// lookup — registration is cold and idempotent). A lookup that returns a
// previously computed value counts as a hit — including lookups that
// waited on a computation another thread started; the thread that runs
// the computation counts a miss. This is the observability surface of
// the hars_simd shared service cache tier: the calibration,
// baseline-probe and static-optimal caches are named, so the daemon's
// /metrics verb reports cross-request reuse. Unnamed caches are
// metrics-free and behave exactly as before.
//
// Deliberately NOT std::call_once: an exception propagating out of the
// callable must leave the flag retryable, and that path deadlocks under
// ThreadSanitizer (the pthread_once interceptor does not unwind), which
// the CI sanitizer matrix would hit. The explicit condition-variable
// protocol below is exception-safe by construction and sanitizer-clean
// (hammered by tests/util/once_cache_test.cpp).
#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace hars {

template <typename Key, typename Value>
class OnceCache {
 public:
  OnceCache() = default;
  /// A named cache registers hit/miss/entries metrics on first use.
  explicit OnceCache(std::string name) : name_(std::move(name)) {}

  /// Returns the cached value for `key`, computing it via `fn` on first
  /// use. The returned copy is taken under the lock after the slot
  /// reaches kDone, so it never observes a partial write.
  template <typename Fn>
  Value get_or_compute(const Key& key, Fn&& fn) {
    std::unique_lock<std::mutex> lock(mutex_);
    ensure_metrics_locked();
    Slot& slot = slots_[key];
    cv_.wait(lock, [&] { return slot.state != State::kRunning; });
    if (slot.state == State::kDone) {
      obs::counter_add(hit_);
      return slot.value;
    }
    slot.state = State::kRunning;  // We become the computer.
    lock.unlock();

    Value value;
    try {
      value = fn();  // Outside the lock: distinct keys in parallel.
    } catch (...) {
      lock.lock();
      slot.state = State::kIdle;  // Retryable: the next caller recomputes.
      lock.unlock();
      cv_.notify_all();
      obs::counter_add(miss_);
      throw;
    }
    lock.lock();
    slot.value = std::move(value);
    slot.state = State::kDone;
    Value result = slot.value;
    // Under the lock, so the last write is the current count.
    if (!name_.empty()) {
      obs::gauge_set(entries_gauge_, static_cast<double>(slots_.size()));
    }
    lock.unlock();
    cv_.notify_all();
    obs::counter_add(miss_);
    return result;
  }

  /// True when `key` holds a computed value, so get_or_compute would
  /// return it without running anything. Not a lookup: counts no hit.
  bool contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    return it != slots_.end() && it->second.state == State::kDone;
  }

  /// Number of keyed entries (computed or in flight). Observability.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

  const std::string& name() const { return name_; }

 private:
  enum class State { kIdle, kRunning, kDone };

  struct Slot {
    State state = State::kIdle;
    Value value{};
  };

  /// Registers the metric ids once (idempotent by metric name). Called
  /// under mutex_; cold — registration locks the registry and allocates.
  void ensure_metrics_locked() {
    if (name_.empty() || metrics_ready_) return;
    auto& registry = obs::MetricsRegistry::instance();
    const std::string base = "cache." + name_;
    hit_ = registry.register_counter(
        base + ".hit", "lookups served from cache '" + name_ + "'");
    miss_ = registry.register_counter(
        base + ".miss", "lookups that computed into cache '" + name_ + "'");
    entries_gauge_ = registry.register_gauge(
        base + ".entries", "keyed entries in cache '" + name_ + "'");
    metrics_ready_ = true;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< Signalled when any slot leaves kRunning.
  std::map<Key, Slot> slots_;   ///< Guarded by mutex_.
  std::string name_;
  bool metrics_ready_ = false;  ///< Guarded by mutex_.
  obs::CounterId hit_;
  obs::CounterId miss_;
  obs::GaugeId entries_gauge_;
};

}  // namespace hars
