// Common error type for the failure-analysis library.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

namespace fa {

// Thrown on precondition violations and unrecoverable input errors
// (malformed CSV, invalid distribution parameters, empty samples, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  explicit Error(const char* what) : std::runtime_error(what) {}
};

// Precondition check used across the library. Unlike assert() it is active in
// all build types: analysis code is routinely run on untrusted trace files.
inline void require(bool cond, const std::string& message) {
  if (!cond) throw Error(message);
}

// Literal-message overload: no std::string is materialized unless the check
// actually fires, which keeps require() free on hot per-value paths.
inline void require(bool cond, const char* message) {
  if (!cond) throw Error(message);
}

// Formatted-message overload: `make_message()` returns the message and runs
// only when the check fires, so a per-row check with a message that names
// the bad value costs no more than the literal overload.
//   require(ok, [&] { return "bad row in " + path; });
template <typename MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
inline void require(bool cond, MakeMessage&& make_message) {
  if (!cond) throw Error(make_message());
}

}  // namespace fa
