// Argument parsing shared by the dfcnn and dfcnn_trend command-line tools.
//
// A bad argument is a usage error: the tools print a one-line message that
// names the argument and exit 2, kept apart from library errors (exit 1) and
// never an abort.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace dfc::cli {

/// An argument the command does not accept: exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses the value of `flag`: the whole string must be a non-negative
/// decimal integer (integral T) or a finite non-negative number (floating T),
/// at most `max`.
template <typename T>
T parse_flag_value(const char* flag, const char* text, T max = std::numeric_limits<T>::max()) {
  auto bad = [&] {
    const char* what = std::is_integral_v<T> ? "a non-negative integer" : "a non-negative number";
    return UsageError(std::string(flag) + " expects " + what + ", got '" + text + "'");
  };
  // A leading digit rules out signs, whitespace, "inf" and "nan" up front.
  if (text[0] < '0' || text[0] > '9') throw bad();
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
      throw bad();
    }
    value = static_cast<T>(v);
  } else {
    value = static_cast<T>(std::strtod(text, &end));
    if (errno == ERANGE || !std::isfinite(value)) throw bad();
  }
  if (*end != '\0') throw bad();
  if (value > max) {
    throw UsageError(std::string(flag) + " must be at most " + std::to_string(max) + ", got '" +
                     text + "'");
  }
  return value;
}

/// True if argv[i] is `flag`, a flag that takes a value in argv[i + 1]; a
/// usage error when the value is missing.
inline bool value_flag(int argc, char** argv, int i, const char* flag) {
  if (std::strcmp(argv[i], flag) != 0) return false;
  if (i + 1 >= argc) throw UsageError(std::string(flag) + " expects a value");
  return true;
}

inline bool is_flag(const char* arg) { return arg[0] == '-' && arg[1] == '-'; }

/// The usage error for an argument the command does not accept.
inline UsageError unexpected_argument(const char* arg) {
  return UsageError((is_flag(arg) ? "unknown flag '" : "unexpected argument '") +
                    std::string(arg) + "'");
}

/// `arg` as a positional argument; an unknown flag is a usage error rather
/// than a value (a device name, a batch size).
inline const char* positional_arg(const char* arg) {
  if (is_flag(arg)) throw unexpected_argument(arg);
  return arg;
}

}  // namespace dfc::cli
