#include "util/alloc_guard.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(HARS_ALLOC_GUARD)
#include <new>
#endif

namespace hars {
namespace allocg {

namespace {
FailureHandler g_handler = nullptr;  ///< nullptr = default (print + abort).
}  // namespace

FailureHandler set_failure_handler(FailureHandler handler) {
  FailureHandler previous = g_handler;
  g_handler = handler;
  return previous;
}

namespace {
void report_failure(const char* what, std::uint64_t violations) {
  if (g_handler != nullptr) {
    g_handler(what, violations);
    return;
  }
  std::fprintf(stderr,
               "AllocGuard: %llu disallowed allocation(s) in '%s' — the hot "
               "path must stay allocation-free (declare legitimate amortized "
               "allocators with allocg::AllowScope)\n",
               static_cast<unsigned long long>(violations),
               what != nullptr ? what : "?");
  std::abort();
}
}  // namespace

#if defined(HARS_ALLOC_GUARD)

bool counting_compiled_in() { return true; }

namespace detail {
ThreadState& state() {
  // Trivially-constructible, so safe to touch from the very first
  // operator new of the thread.
  static thread_local ThreadState s;
  return s;
}

std::uint64_t* scope_slot(ThreadState& s, const char* why) {
  if (why == nullptr) return nullptr;
  // A literal names its scope on every entry, so a pointer match finds the
  // slot without comparing text; slot names are unique, so the text match
  // below finds the same slot for an equal string at another address.
  for (int i = 0; i < s.num_scopes; ++i) {
    if (s.scopes[i].name == why) return &s.scopes[i].allocs;
  }
  for (int i = 0; i < s.num_scopes; ++i) {
    if (std::strcmp(s.scopes[i].name, why) == 0) return &s.scopes[i].allocs;
  }
  if (s.num_scopes >= ThreadState::kMaxScopes) return nullptr;
  s.scopes[s.num_scopes].name = why;
  s.scopes[s.num_scopes].allocs = 0;
  return &s.scopes[s.num_scopes++].allocs;
}
}  // namespace detail

std::uint64_t thread_allocs() { return detail::state().allocs; }
std::uint64_t thread_violations() { return detail::state().violations; }

std::vector<ScopeCount> thread_scope_counts() {
  const detail::ThreadState& s = detail::state();
  return std::vector<ScopeCount>(s.scopes, s.scopes + s.num_scopes);
}

#else  // !HARS_ALLOC_GUARD

bool counting_compiled_in() { return false; }
std::uint64_t thread_allocs() { return 0; }
std::uint64_t thread_violations() { return 0; }
std::vector<ScopeCount> thread_scope_counts() { return {}; }

#endif  // HARS_ALLOC_GUARD

}  // namespace allocg

#if defined(HARS_ALLOC_GUARD)

AllocGuard::~AllocGuard() {
  allocg::detail::ThreadState& s = allocg::detail::state();
  --s.strict_depth;
  s.allow_depth = saved_allow_depth_;
  s.scope_counter = saved_scope_counter_;
  if (armed_ && violations() > 0) {
    allocg::report_failure(what_, violations());
  }
}

#endif  // HARS_ALLOC_GUARD

}  // namespace hars

#if defined(HARS_ALLOC_GUARD)

// Counting replacements for the global allocation functions. Only the
// plain/nothrow (array) forms are replaced; the rare over-aligned forms
// keep the library implementation (uncounted, but internally consistent).
namespace {

inline void* counted_alloc(std::size_t size) noexcept {
  hars::allocg::detail::ThreadState& s = hars::allocg::detail::state();
  ++s.allocs;
  if (s.strict_depth > 0 && s.allow_depth == 0) ++s.violations;
  if (s.allow_depth > 0 && s.scope_counter != nullptr) ++*s.scope_counter;
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // HARS_ALLOC_GUARD
