// Error handling primitives used across the dfcnn library.
//
// The library reports contract violations and unrecoverable configuration
// errors through exceptions derived from dfc::Error. Hot simulation paths use
// DFC_ASSERT, which compiles to a cheap check that can be disabled with
// DFCNN_DISABLE_ASSERTS for maximum-speed sweeps.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace dfc {

/// Base class for all errors thrown by the dfcnn library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : Error(what, what) {}
  /// `message` is `what` without the context only a developer needs — a
  /// failed check's expression and source location.
  Error(const std::string& what, const std::string& message)
      : std::runtime_error(what), message_(message) {}

  /// The one-line message a command-line tool shows its user; what() keeps
  /// the full context.
  const char* message() const noexcept { return message_.what(); }

 private:
  std::runtime_error message_;  ///< copies without throwing, unlike std::string
};

/// Invalid user-supplied configuration (layer shapes, port counts, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config error: " + what) {}
  ConfigError(const std::string& what, const std::string& message)
      : Error("config error: " + what, "config error: " + message) {}
};

/// Internal invariant violation; indicates a bug in the library itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error("internal error: " + what) {}
  InternalError(const std::string& what, const std::string& message)
      : Error("internal error: " + what, "internal error: " + message) {}
};

/// Simulation-level failure (deadlock, FIFO protocol violation, ...).
class SimError : public Error {
 public:
  explicit SimError(const std::string& what) : Error("simulation error: " + what) {}
};

/// run_until exhausted its cycle budget before the predicate was satisfied.
/// A SimError subclass so existing catch sites keep working; harnesses catch
/// it specifically to return a structured partial result (RunStatus::kTimeout)
/// instead of aborting a whole fault campaign or DSE loop.
class TimeoutError : public SimError {
 public:
  explicit TimeoutError(const std::string& what) : SimError(what) {}
};

/// The idle watchdog declared a deadlock/livelock (no FIFO transferred for
/// idle_limit cycles with the run_until predicate unsatisfied). Also a
/// SimError subclass; harnesses map it to RunStatus::kDeadlock.
class DeadlockError : public SimError {
 public:
  explicit DeadlockError(const std::string& what) : SimError(what) {}
};

/// Admission rejected because the system is saturated (serve request queue
/// full). Deliberately distinct from ConfigError: the request was valid, the
/// service just cannot take it right now — callers may retry or downgrade.
class OverloadError : public Error {
 public:
  explicit OverloadError(const std::string& what) : Error("overload: " + what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  const std::string check = std::string(kind) + " failed: " + expr;
  std::string full = check + " at " + file + ":" + std::to_string(line);
  if (!msg.empty()) full += " — " + msg;
  // Users see the message alone; the expression only when there is none.
  const std::string& shown = msg.empty() ? check : msg;
  if (std::string(kind) == "DFC_REQUIRE") throw ConfigError(full, shown);
  throw InternalError(full, shown);
}
}  // namespace detail

}  // namespace dfc

/// Validates user-facing preconditions; throws dfc::ConfigError on failure.
#define DFC_REQUIRE(cond, msg)                                                     \
  do {                                                                             \
    if (!(cond)) {                                                                 \
      ::dfc::detail::throw_check_failure("DFC_REQUIRE", #cond, __FILE__, __LINE__, \
                                         (msg));                                   \
    }                                                                              \
  } while (0)

/// Validates internal invariants; throws dfc::InternalError on failure.
#define DFC_CHECK(cond, msg)                                                     \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::dfc::detail::throw_check_failure("DFC_CHECK", #cond, __FILE__, __LINE__, \
                                         (msg));                                 \
    }                                                                            \
  } while (0)

/// Cheap assertion for hot paths; disabled by defining DFCNN_DISABLE_ASSERTS.
#ifdef DFCNN_DISABLE_ASSERTS
#define DFC_ASSERT(cond, msg) ((void)0)
#else
#define DFC_ASSERT(cond, msg) DFC_CHECK(cond, msg)
#endif
