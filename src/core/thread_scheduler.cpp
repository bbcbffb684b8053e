#include "core/thread_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "backend/backend.hpp"

namespace hars {

const char* thread_scheduler_name(ThreadSchedulerKind kind) {
  switch (kind) {
    case ThreadSchedulerKind::kChunk: return "chunk";
    case ThreadSchedulerKind::kInterleaved: return "interleaved";
    case ThreadSchedulerKind::kHierarchical: return "hierarchical";
  }
  return "?";
}

std::optional<ThreadSchedulerKind> parse_thread_scheduler(
    std::string_view name) {
  for (ThreadSchedulerKind kind :
       {ThreadSchedulerKind::kChunk, ThreadSchedulerKind::kInterleaved,
        ThreadSchedulerKind::kHierarchical}) {
    if (name == thread_scheduler_name(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<bool> plan_hierarchical_placement(const std::vector<int>& group_sizes,
                                              int tb, [[maybe_unused]] int tl) {
  int t = 0;
  for (int g : group_sizes) t += g;
  assert(tb >= 0 && tl >= 0 && tb + tl == t);
  if (t == 0) return {};

  // Largest-remainder apportionment of the tb big slots over groups.
  const std::size_t n_groups = group_sizes.size();
  std::vector<int> big_quota(n_groups, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const double ideal =
        static_cast<double>(tb) * group_sizes[g] / static_cast<double>(t);
    big_quota[g] = static_cast<int>(ideal);
    big_quota[g] = std::min(big_quota[g], group_sizes[g]);
    assigned += big_quota[g];
    remainders.emplace_back(ideal - big_quota[g], g);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [rem, g] : remainders) {
    if (assigned >= tb) break;
    if (big_quota[g] < group_sizes[g]) {
      ++big_quota[g];
      ++assigned;
    }
  }
  // Rounding plus per-group caps can still leave slots; hand them to any
  // group with capacity.
  for (std::size_t g = 0; g < n_groups && assigned < tb; ++g) {
    while (big_quota[g] < group_sizes[g] && assigned < tb) {
      ++big_quota[g];
      ++assigned;
    }
  }

  std::vector<bool> plan;
  plan.reserve(static_cast<std::size_t>(t));
  for (std::size_t g = 0; g < n_groups; ++g) {
    for (int i = 0; i < group_sizes[g]; ++i) {
      plan.push_back(i < big_quota[g]);
    }
  }
  return plan;
}

std::vector<bool> plan_thread_placement(ThreadSchedulerKind kind, int t, int tb,
                                        int tl) {
  assert(t >= 0 && tb >= 0 && tl >= 0 && tb + tl == t);
  std::vector<bool> big(static_cast<std::size_t>(t), false);
  if (kind == ThreadSchedulerKind::kChunk) {
    // First T_L consecutive threads -> little, remainder -> big.
    for (int i = tl; i < t; ++i) big[static_cast<std::size_t>(i)] = true;
    return big;
  }
  // Interleaving: alternate starting with little (Figure 3.2(b)), spending
  // each side's quota; once one side is exhausted the rest flow over.
  int remaining_b = tb;
  int remaining_l = tl;
  bool next_is_little = true;
  for (int i = 0; i < t; ++i) {
    bool to_big = false;
    if (remaining_l == 0) {
      to_big = true;
    } else if (remaining_b == 0) {
      to_big = false;
    } else {
      to_big = !next_is_little;
      next_is_little = !next_is_little;
    }
    if (to_big) {
      --remaining_b;
    } else {
      --remaining_l;
    }
    big[static_cast<std::size_t>(i)] = to_big;
  }
  return big;
}

void apply_thread_schedule(Backend& backend, AppId app,
                           ThreadSchedulerKind kind,
                           const ThreadAssignment& assignment, CpuMask big_set,
                           CpuMask little_set) {
  const int t = backend.thread_count(app);
  assert(assignment.tb + assignment.tl == t);
  const std::vector<bool> plan =
      kind == ThreadSchedulerKind::kHierarchical
          ? plan_hierarchical_placement(backend.thread_group_sizes(app),
                                        assignment.tb, assignment.tl)
          : plan_thread_placement(kind, t, assignment.tb, assignment.tl);
  const CpuMask fallback = big_set | little_set;
  for (int i = 0; i < t; ++i) {
    CpuMask mask = plan[static_cast<std::size_t>(i)] ? big_set : little_set;
    if (mask.empty()) mask = fallback;
    backend.place(app, i, mask);
  }
}

}  // namespace hars
