// Common error-handling and basic types shared by all dragonviz modules.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dv {

/// Error thrown for violated preconditions and invalid user input.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& msg);
}  // namespace detail

/// Precondition check on user-facing API boundaries; throws dv::Error
/// whose message is `msg` alone — no expression or source location.
#define DV_REQUIRE(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) ::dv::detail::fail("requirement", #cond, __FILE__,        \
                                    __LINE__, (msg));                      \
  } while (0)

/// Internal invariant check; throws dv::Error naming the expression and
/// file:line (kept on in release builds — simulation correctness matters
/// more than the branch cost).
#define DV_CHECK(cond, msg)                                                \
  do {                                                                     \
    if (!(cond)) ::dv::detail::fail("invariant", #cond, __FILE__,          \
                                    __LINE__, (msg));                      \
  } while (0)

/// Simulated time in nanoseconds.
using SimTime = double;

}  // namespace dv
