// The two HARS schedulers (thesis §3.1.3, Figure 3.2). Both receive the
// (T_B, T_L) split from the performance estimator and pin threads with the
// sched_setaffinity equivalent:
//
//  * chunk-based — the first T_L consecutive thread IDs go to the little
//    cores, the rest to the big cores; exploits constructive cache sharing
//    among consecutive threads but can map whole pipeline stages onto one
//    cluster (the ferret bottleneck);
//  * interleaving — thread IDs alternate little/big until one side's quota
//    is exhausted; balances each pipeline stage across clusters at the
//    cost of cache sharing.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/thread_assignment.hpp"
#include "hmp/cpu_mask.hpp"
#include "hmp/sim_engine.hpp"

namespace hars {

enum class ThreadSchedulerKind { kChunk, kInterleaved, kHierarchical };

const char* thread_scheduler_name(ThreadSchedulerKind kind);

/// Inverse of thread_scheduler_name; nullopt for unknown names.
std::optional<ThreadSchedulerKind> parse_thread_scheduler(
    std::string_view name);

/// Per-thread cluster plan: entry i is true when thread i goes to the big
/// cluster. `tb + tl` must equal `t`.
std::vector<bool> plan_thread_placement(ThreadSchedulerKind kind, int t, int tb,
                                        int tl);

/// Hierarchy-aware plan (thesis §3.1.4, option 2): distributes the T_B big
/// slots across thread groups (pipeline stages) proportionally to group
/// size via largest remainder, so every stage gets its fair share of fast
/// cores regardless of how thread IDs happen to be ordered. Within a
/// group, big slots go to the group's first threads.
std::vector<bool> plan_hierarchical_placement(const std::vector<int>& group_sizes,
                                              int tb, int tl);

/// Applies the plan to an application's threads: big-bound threads get
/// `big_set`, little-bound threads get `little_set` as affinity (through
/// Backend::place — sched_setaffinity on live backends). A thread whose
/// side has no cores falls back to the union (defensive; Table 3.1 never
/// produces that). The hierarchical kind queries the application's
/// thread_group_sizes().
void apply_thread_schedule(Backend& backend, AppId app,
                           ThreadSchedulerKind kind,
                           const ThreadAssignment& assignment, CpuMask big_set,
                           CpuMask little_set);

}  // namespace hars
