// Set-up fan-out: runs a handful of independent, coarse items (whole
// calibration or probe simulations, milliseconds each) on the calling
// thread plus short-lived helper threads, up to hardware_threads() in
// all, and returns each item's result at its index.
//
// Rules that keep callers deterministic and cheap:
//  * results land by index, so the caller sees the same vector whatever
//    the interleaving; each item must only touch state of its own (its
//    own SimEngine) or thread-safe shared state (OnceCache);
//  * fewer than two items, a one-CPU affinity mask, or a caller that is a
//    pool worker (WorkStealingPool marks its workers, and fan-out helpers
//    mark themselves) run every item inline on the calling thread, so a
//    sweep's --jobs N workers never start N x cores threads;
//  * every item runs even when an earlier one throws; after all finished
//    the lowest-index exception is rethrown.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/function_ref.hpp"

namespace hars {

/// Hardware threads this process may run on: its CPU affinity mask where
/// the OS reports one, else std::thread::hardware_concurrency(); at least
/// 1. The one width SweepEngine's --jobs 0 and fan_out read.
int hardware_threads();

/// Marks the calling thread, for the rest of its life, as a worker of a
/// thread pool: fan_out called on it runs inline.
void mark_pool_worker();

/// True once mark_pool_worker() ran on the calling thread.
bool on_pool_worker();

/// Helper threads fan_out has started in this process (observability: a
/// run whose set-up is fully cached starts none).
std::size_t fan_out_threads_started();

/// Runs fn(i) once for every i in [0, n); see the header comment.
void fan_out_each(std::size_t n, FunctionRef<void(std::size_t)> fn);

/// fan_out_each collecting fn(i) at index i. The result type must be
/// default-constructible.
template <typename Fn>
auto fan_out(std::size_t n, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<Result> results(n);
  fan_out_each(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace hars
