#include "host_speed.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "probes.hpp"

namespace perfbench {

namespace {

double one_pass() {
  struct Thread {
    double load = 0.5;
    double work = 0.0;
    double share = 0.0;
    int core = 0;
  };
  // State persists across a thread's passes so each pass starts where the
  // last one left off, as successive engine ticks do.
  static thread_local Thread threads[8];
  static thread_local double energy = 0.0;
  static thread_local std::uint64_t rng = 1;
  static const double speed[8] = {2, 2, 2, 2, 3, 3, 3, 3};

  const std::int64_t t0 = now_ns();
  for (int tick = 0; tick < 20000; ++tick) {
    int sharers[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (const Thread& t : threads) ++sharers[t.core];
    double busy[2] = {0.0, 0.0};
    for (Thread& t : threads) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const bool runnable = (rng >> 61) != 0;
      t.share = runnable ? 1000.0 / sharers[t.core] : 0.0;
      t.work += t.share * speed[t.core];
      t.load = t.load * 0.95 + (runnable ? 0.05 : 0.0);
      if (t.load > 0.8 && t.core < 4) {
        t.core += 4 + static_cast<int>(rng >> 62);
      } else if (t.load < 0.3 && t.core >= 4) {
        t.core -= 4;
      }
      if (t.core > 7) t.core = 7;
      busy[t.core >= 4 ? 1 : 0] += t.share * 1e-3;
    }
    energy += busy[0] * 0.3 + busy[1] * 1.2 + std::sqrt(busy[0] + busy[1]);
  }
  const std::int64_t elapsed = now_ns() - t0;
  asm volatile("" : : "r,m"(energy) : "memory");
  return static_cast<double>(elapsed);
}

}  // namespace

double reference_kernel_ns(int threads) {
  std::vector<double> ns(static_cast<std::size_t>(std::max(threads, 1)));
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < ns.size(); ++i) {
      helpers.emplace_back([&ns, i] { ns[i] = one_pass(); });
    }
    ns[0] = one_pass();
  }  // Joins the helpers.
  double sum = 0.0;
  for (double v : ns) sum += v;
  return sum / static_cast<double>(ns.size());
}

}  // namespace perfbench
