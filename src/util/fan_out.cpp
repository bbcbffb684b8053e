#include "util/fan_out.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hars {

namespace {

thread_local bool tls_pool_worker = false;
std::atomic<std::size_t> g_threads_started{0};

}  // namespace

int hardware_threads() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void mark_pool_worker() { tls_pool_worker = true; }

bool on_pool_worker() { return tls_pool_worker; }

std::size_t fan_out_threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

void fan_out_each(std::size_t n, FunctionRef<void(std::size_t)> fn) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::size_t helpers = 0;
  if (n >= 2 && !on_pool_worker()) {
    helpers = std::min<std::size_t>(
        n, static_cast<std::size_t>(hardware_threads())) - 1;
  }
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      threads.emplace_back([&drain] {
        mark_pool_worker();  // Nested fan-outs run inline.
        drain();
      });
    } catch (const std::system_error&) {
      break;  // No thread to spare: the caller and the others drain.
    }
    g_threads_started.fetch_add(1, std::memory_order_relaxed);
  }
  drain();
  for (std::thread& t : threads) t.join();

  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace hars
