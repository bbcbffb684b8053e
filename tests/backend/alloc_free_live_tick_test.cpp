// The allocation-free tick contract on the live backend: a warmed
// mock_linux run with HARS-E attached executes run_for() under an
// AllocGuard. Everything the backend does per tick (thread model, GTS,
// energy push, heartbeat pumping) must stay off the heap; only the
// declared AllowScopes below may allocate.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "backend/mock_linux_backend.hpp"
#include "core/hars.hpp"
#include "core/power_profiler.hpp"
#include "util/alloc_guard.hpp"

namespace hars {
namespace {

std::vector<std::string>& failures() {
  static std::vector<std::string> recorded;
  return recorded;
}

void recording_handler(const char* what, std::uint64_t violations) {
  failures().push_back(std::string(what) + ": " + std::to_string(violations));
}

TEST(AllocFreeLiveTick, WarmMockLinuxTickWithHarsEAllocatesNothing) {
  if (!allocg::counting_compiled_in()) {
    GTEST_SKIP() << "built without HARS_ALLOC_GUARD";
  }
  const allocg::FailureHandler previous =
      allocg::set_failure_handler(recording_handler);
  failures().clear();

  MockLinuxBackend backend;
  WorkloadDesc desc;
  desc.label = "SW";
  desc.threads = 8;
  const AppId id = backend.add_workload(desc);
  RuntimeManager manager(
      backend, id, PerfTarget{12.0, 13.0},  // Oscillates: keeps searching.
      profile_power(backend.topology(), backend.profiling_model()),
      config_for_variant(HarsVariant::kHarsE));
  backend.attach_manager(&manager);
  backend.run_for(20 * kUsPerSec);  // Warm: first-use scratch growth.
  const std::int64_t adaptations = manager.adaptations();

  const std::vector<allocg::ScopeCount> before = allocg::thread_scope_counts();
  std::uint64_t violations = 0;
  {
    AllocGuard guard("mock_linux live tick");
    backend.run_for(60 * kUsPerSec);
    violations = guard.violations();
  }
  const std::vector<allocg::ScopeCount> after = allocg::thread_scope_counts();
  allocg::set_failure_handler(previous);

  EXPECT_EQ(violations, 0u);
  EXPECT_TRUE(failures().empty()) << failures().front();
  EXPECT_GT(manager.adaptations(), adaptations);  // The manager kept acting.

  // Whatever did allocate inside the guard did so in a declared scope.
  const std::set<std::string> declared = {"heartbeat history growth",
                                          "runtime-manager bookkeeping"};
  for (const allocg::ScopeCount& scope : after) {
    std::uint64_t earlier = 0;
    for (const allocg::ScopeCount& b : before) {
      if (std::string(b.name) == scope.name) earlier = b.allocs;
    }
    if (scope.allocs != earlier) {
      EXPECT_EQ(declared.count(scope.name), 1u)
          << "scope \"" << scope.name << "\" allocated in the live tick";
    }
  }
}

}  // namespace
}  // namespace hars
