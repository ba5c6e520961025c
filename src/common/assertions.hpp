// Deep invariant checking, compiled in when AMRI_ASSERTIONS is defined
// (the debug-asan/debug-ubsan/debug-tsan presets turn it on). Unlike
// NDEBUG-controlled assert(), these checks may be expensive — full
// data-structure walks — so they stay out of plain Debug builds and are
// invoked explicitly through AMRI_CHECK_INVARIANTS at structural
// transition points (migration, window expiry, compression passes).
//
// check_invariants() methods themselves are always compiled and callable
// from tests in any build; the macros only gate the hot-path call sites.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace amri::detail {

[[noreturn]] inline void assertion_failure(const char* expr, const char* file,
                                           int line, const char* msg) {
  std::fprintf(stderr, "AMRI invariant violated: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg);
  std::abort();
}

}  // namespace amri::detail

/// Always-on invariant check with a message; used inside check_invariants()
/// bodies, which tests call explicitly in every build type.
#define AMRI_CHECK(expr, msg)                                               \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::amri::detail::assertion_failure(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                       \
  } while (false)

#ifdef AMRI_ASSERTIONS
/// Expensive assertion compiled only under AMRI_ASSERTIONS.
#define AMRI_ASSERT(expr, msg) AMRI_CHECK(expr, msg)
/// Run an object's check_invariants() at a structural transition point.
#define AMRI_CHECK_INVARIANTS(obj) (obj).check_invariants()
#else
#define AMRI_ASSERT(expr, msg) \
  do {                         \
  } while (false)
#define AMRI_CHECK_INVARIANTS(obj) \
  do {                             \
  } while (false)
#endif
