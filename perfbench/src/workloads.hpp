// The four benchmark workloads and the closed-loop runner that drives them.
//
// One caller runs ops back to back: the next op starts when the previous
// one returns. Only the library call an op is about is timed; inputs are
// made before it and every check runs after it. A run repeats its set-up
// several times (the median is setup_s), computes its reference answers,
// then runs whole passes of ops until the timed op time reaches --seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string anchors_path;  ///< bench/baselines/expected.json of the checkout
  std::string trace_out;     ///< span dump of a traced run (empty = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  OpLedger ops;
  /// Failures outside any op (a set-up anchor, a broken reference); any
  /// entry makes the run incorrect.
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for stdout
};

const std::vector<std::string>& workload_names();

/// Runs one workload end to end. Throws ConfigError on an unknown workload
/// or a missing anchors file.
RunResult run_benchmark(const Options& options);

}  // namespace perfbench
