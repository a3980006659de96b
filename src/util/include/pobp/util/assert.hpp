// Runtime assertion macros used throughout the library.
//
// POBP_ASSERT is active in every build type (the algorithms here are
// correctness-critical reference implementations; the cost of the checks is
// negligible next to the O(n log n) work they guard).  POBP_DASSERT compiles
// away in NDEBUG builds and is used inside hot inner loops.
//
// POBP_CHECK / POBP_CHECK_MSG throw pobp::InternalError instead of
// aborting.  Use them for invariants that malformed *input* can reach —
// the serving layer (Session::run) catches the exception at the
// instance boundary and converts it into a diag::Report, so one poisoned
// instance never takes down a batch.  POBP_ASSERT stays for states that
// are impossible regardless of input.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pobp {

/// A pipeline invariant failed while solving one instance.  Thrown by
/// POBP_CHECK; caught at the Session boundary (rule POBP-RUN-001).
class InternalError : public std::logic_error {
 public:
  InternalError(const char* expr, const char* file, int line, const char* msg)
      : std::logic_error(format(expr, file, line, msg)) {}

 private:
  static std::string format(const char* expr, const char* file, int line,
                            const char* msg) {
    std::string out = "pipeline invariant failed: ";
    out += expr;
    out += " at ";
    out += file;
    out += ':';
    out += std::to_string(line);
    if (msg && *msg) {
      out += " (";
      out += msg;
      out += ')';
    }
    return out;
  }
};

namespace detail {

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "pobp assertion failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg ? msg : "");
  std::abort();
}

[[noreturn]] inline void check_fail(const char* expr, const char* file,
                                    int line, const char* msg) {
  throw InternalError(expr, file, line, msg);
}

}  // namespace detail
}  // namespace pobp

#define POBP_ASSERT(expr)                                              \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::pobp::detail::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
    }                                                                  \
  } while (0)

#define POBP_ASSERT_MSG(expr, msg)                                  \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::pobp::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                \
  } while (0)

#define POBP_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::pobp::detail::check_fail(#expr, __FILE__, __LINE__, nullptr); \
    }                                                                 \
  } while (0)

#define POBP_CHECK_MSG(expr, msg)                                  \
  do {                                                             \
    if (!(expr)) {                                                 \
      ::pobp::detail::check_fail(#expr, __FILE__, __LINE__, (msg)); \
    }                                                              \
  } while (0)

#ifdef NDEBUG
// sizeof keeps the expression parsed (so variables used only in the assert
// don't trip -Wunused-variable under -Werror) without ever evaluating it.
#define POBP_DASSERT(expr) ((void)sizeof(!(expr)))
#else
#define POBP_DASSERT(expr) POBP_ASSERT(expr)
#endif
