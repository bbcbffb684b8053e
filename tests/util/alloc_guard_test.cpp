// AllocGuard / AllowScope semantics: counting, violation detection,
// exemption scopes, re-tightening and failure-handler dispatch.
//
// All assertions run AFTER the guard under test has been destroyed: the
// test framework itself allocates, so reads are captured into locals
// while the guard is alive and checked once the region is closed.
#include "util/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace hars {
namespace {

struct RecordedFailure {
  std::string what;
  std::uint64_t violations = 0;
};

std::vector<RecordedFailure>& recorded() {
  static std::vector<RecordedFailure> failures;
  return failures;
}

void recording_handler(const char* what, std::uint64_t violations) {
  recorded().push_back(RecordedFailure{what, violations});
}

/// Installs the recording handler for one test body.
class HandlerScope {
 public:
  HandlerScope() : previous_(allocg::set_failure_handler(recording_handler)) {
    recorded().clear();
  }
  ~HandlerScope() { allocg::set_failure_handler(previous_); }

 private:
  allocg::FailureHandler previous_;
};

TEST(AllocGuard, CountingIsCompiledInByDefault) {
  // The default build (HARS_ALLOC_GUARD=ON) replaces operator new; if
  // this fails the whole enforcement suite is silently disabled.
  EXPECT_TRUE(allocg::counting_compiled_in());
}

TEST(AllocGuard, ThreadAllocCounterAdvances) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  const std::uint64_t before = allocg::thread_allocs();
  // Direct operator calls: paired `delete new int(...)` expressions are
  // legally elidable (and GCC does elide them at -O2), which would make
  // this test vacuous.
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_GT(allocg::thread_allocs(), before);
}

TEST(AllocGuard, CleanRegionReportsNothing) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t allocs = 1;
  std::uint64_t violations = 1;
  {
    AllocGuard guard("clean");
    int x = 3;
    x += x;
    (void)x;
    allocs = guard.allocations();
    violations = guard.violations();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(violations, 0u);
  EXPECT_TRUE(recorded().empty());
}

TEST(AllocGuard, AllocationInsideGuardIsViolationAndFiresHandler) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t violations = 0;
  {
    AllocGuard guard("hot-region");
    ::operator delete(::operator new(16));
    violations = guard.violations();
  }
  EXPECT_EQ(violations, 1u);
  ASSERT_EQ(recorded().size(), 1u);
  EXPECT_EQ(recorded()[0].what, "hot-region");
  EXPECT_EQ(recorded()[0].violations, 1u);
}

TEST(AllocGuard, AllowScopeExemptsDeclaredAllocators) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t allocs = 0;
  std::uint64_t violations = 1;
  {
    AllocGuard guard("with-declared-allocator");
    {
      allocg::AllowScope allow("declared amortized growth");
      ::operator delete(::operator new(16));
    }
    allocs = guard.allocations();
    violations = guard.violations();
  }
  // Counted (the delta is real) but not a violation.
  EXPECT_GE(allocs, 1u);
  EXPECT_EQ(violations, 0u);
  EXPECT_TRUE(recorded().empty());
}

TEST(AllocGuard, GuardReTightensEnclosingAllowScope) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t inner_violations = 0;
  std::uint64_t after_restore_delta = 1;
  {
    AllocGuard outer("step");
    // A manager tick is a declared allocator under the step's guard...
    allocg::AllowScope allow("manager bookkeeping");
    {
      // ...but the search inside it must stay strict.
      AllocGuard inner("search");
      ::operator delete(::operator new(16));
      inner_violations = inner.violations();
      inner.dismiss();
    }
    // The inner guard's destructor restored the AllowScope's permission:
    // with the outer guard still live, this allocation is exempt again.
    const std::uint64_t before = outer.violations();
    ::operator delete(::operator new(16));
    after_restore_delta = outer.violations() - before;
    outer.dismiss();
  }
  EXPECT_EQ(inner_violations, 1u);
  EXPECT_EQ(after_restore_delta, 0u);
  EXPECT_TRUE(recorded().empty());  // Both guards were dismissed.
}

TEST(AllocGuard, DismissSuppressesHandlerButKeepsCounts) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t violations = 0;
  {
    AllocGuard guard("dismissed");
    ::operator delete(::operator new(16));
    violations = guard.violations();
    guard.dismiss();
  }
  EXPECT_EQ(violations, 1u);
  EXPECT_TRUE(recorded().empty());
}

TEST(AllocGuard, ScopeCountsAttributeAllocationsToAllowScopes) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  std::uint64_t before = 0;
  for (const allocg::ScopeCount& sc : allocg::thread_scope_counts()) {
    if (std::string(sc.name) == "scope-count-test") before = sc.allocs;
  }
  {
    allocg::AllowScope allow("scope-count-test");
    ::operator delete(::operator new(16));
    ::operator delete(::operator new(32));
  }
  std::uint64_t after = 0;
  bool found = false;
  for (const allocg::ScopeCount& sc : allocg::thread_scope_counts()) {
    if (std::string(sc.name) == "scope-count-test") {
      after = sc.allocs;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(after - before, 2u);
}

// Scope lookup matches the literal's address first and falls back to its
// text: a scope named by an equal string elsewhere in memory must still
// land in the literal's slot.
TEST(AllocGuard, ScopeNamedByEqualTextSharesTheLiteralsSlot) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  const char* const literal = "heap-copy-scope-test";
  const std::vector<char> copy(literal, literal + std::string(literal).size() + 1);
  ASSERT_NE(copy.data(), literal);
  auto slots = [&] {
    std::vector<allocg::ScopeCount> found;
    for (const allocg::ScopeCount& sc : allocg::thread_scope_counts()) {
      if (std::string(sc.name) == literal) found.push_back(sc);
    }
    return found;
  };
  {
    allocg::AllowScope allow(literal);
    ::operator delete(::operator new(16));
  }
  const std::vector<allocg::ScopeCount> first = slots();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].name, literal);  // The literal registered the slot.
  {
    allocg::AllowScope allow(copy.data());
    ::operator delete(::operator new(16));
    ::operator delete(::operator new(32));
  }
  {
    allocg::AllowScope allow(literal);
    ::operator delete(::operator new(64));
  }
  const std::vector<allocg::ScopeCount> after = slots();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].name, literal);
  EXPECT_EQ(after[0].allocs - first[0].allocs, 3u);
}

TEST(AllocGuard, InnerGuardSuspendsScopeAttribution) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  {
    allocg::AllowScope allow("suspended-scope-test");
    // An inner guard re-tightens: the allocation below is a violation of
    // the inner guard, NOT an allocation of the enclosing scope.
    AllocGuard inner("strict");
    ::operator delete(::operator new(16));
    inner.dismiss();
  }
  std::uint64_t count = 0;
  for (const allocg::ScopeCount& sc : allocg::thread_scope_counts()) {
    if (std::string(sc.name) == "suspended-scope-test") count = sc.allocs;
  }
  EXPECT_EQ(count, 0u);
}

TEST(AllocGuard, NestedGuardsReportIndependently) {
  if (!allocg::counting_compiled_in()) GTEST_SKIP();
  HandlerScope handler;
  std::uint64_t outer_violations = 0;
  std::uint64_t inner_violations = 0;
  {
    AllocGuard outer("outer");
    {
      AllocGuard inner("inner");
      ::operator delete(::operator new(16));
      inner_violations = inner.violations();
      inner.dismiss();
    }
    outer_violations = outer.violations();
    outer.dismiss();
  }
  // The single disallowed allocation is visible to both live guards.
  EXPECT_EQ(inner_violations, 1u);
  EXPECT_EQ(outer_violations, 1u);
}

}  // namespace
}  // namespace hars
