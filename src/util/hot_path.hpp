// Hot-path annotation, enforced by tools/hars_lint.
//
// HARS_HOT marks a function *definition* as part of the simulator's hot
// path: the per-tick engine loop (SimEngine::step and its helpers), the
// scheduler's assign pass, the performance/power estimators, and the
// candidate-search sweeps. tools/hars_lint scans src/ and rejects, inside
// every HARS_HOT body:
//
//   no-alloc            new/malloc/make_unique/push_back-style growth
//   no-container-local  owning container locals (std::vector<T> v; ...)
//   no-wallclock-rand   rand()/time()/clocks/std::random_device
//   no-unordered        unordered_map/unordered_set (iteration order is
//                       not deterministic across libraries)
//
// A line that is deliberately exempt (guarded one-time growth, retained
// capacity) carries `// hars-lint: allow(<rule>): <reason>`; a block uses
// `// hars-lint: allow-begin(<rule>): <reason>` ... `// hars-lint:
// allow-end`. The exemption doubles as documentation and is itself
// checked: runtime enforcement (util/alloc_guard.hpp) still counts every
// allocation the exempted lines perform.
//
// Annotate definitions only — `HARS_HOT void f() { ... }` — never
// declarations; the linter skips an annotation whose next token ends in
// `;` before any `{`, but keeping the marker on the body keeps the
// diagnostics adjacent to the code they police.
//
// Every hot function also starts on a 64-byte boundary, so an edit to one
// function cannot shift the alignment of another's inner loops: adding a
// single unused hot function used to move the steady-state tick rate by
// about 5%.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define HARS_HOT [[gnu::hot, gnu::aligned(64)]]
#else
#define HARS_HOT
#endif
