// Host-time spans recorded by the benchmark around its calls into the
// library's public functions.
//
// A span has a name, a start, an end and the span that was open when it
// began (its parent); ops are roots. Spans stay in memory and are written
// once, when the run ends. A disabled tracer records nothing, so untraced
// runs pay one branch per call site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    /// `name` is copied only when the tracer is enabled.
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  struct Totals {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< duration minus the time covered by child spans
  };

  /// Totals per span name over every span recorded so far.
  std::map<std::string, Totals> totals() const;

  /// Writes every span as a JSON array of {name, start_ns, end_ns, parent}.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< indices of spans not yet closed
};

}  // namespace perfbench
