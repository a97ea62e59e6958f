// Lightweight always-on invariant checking.
//
// Simulation correctness is the whole point of this library, so checks stay on
// in release builds; the hot paths use them sparingly.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace synran {

/// Thrown when an internal invariant is violated. Catching this is a bug —
/// it indicates broken library state, not bad user input.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown on invalid arguments to public API entry points.
class ArgumentError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Streams `parts` into one string, for diagnostics.
template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

namespace detail {
[[noreturn]] inline void check_failed(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  if (kind[0] == 'S') throw InvariantError(os.str());
  throw ArgumentError(os.str());
}
}  // namespace detail

}  // namespace synran

/// Internal invariant; violation is a library bug.
#define SYNRAN_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr))                                                            \
      ::synran::detail::check_failed("SYNRAN_CHECK", #expr, __FILE__,       \
                                     __LINE__, std::string{});              \
  } while (false)

#define SYNRAN_CHECK_MSG(expr, msg)                                         \
  do {                                                                      \
    if (!(expr))                                                            \
      ::synran::detail::check_failed("SYNRAN_CHECK", #expr, __FILE__,       \
                                     __LINE__, (msg));                      \
  } while (false)

/// Precondition on a public API argument; violation throws ArgumentError.
#define SYNRAN_REQUIRE(expr, msg)                                           \
  do {                                                                      \
    if (!(expr))                                                            \
      ::synran::detail::check_failed("REQUIRE", #expr, __FILE__, __LINE__,  \
                                     (msg));                                \
  } while (false)
