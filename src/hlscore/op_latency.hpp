// Latency model of the floating-point operators instantiated by the HLS
// flow.
//
// The paper reports an 11-cycle latency for single-precision accumulation
// (Sec. IV-B) — the value of the Xilinx floating-point adder at 100 MHz on
// Virtex-7 — and works around it with interleaved accumulators. The
// multiplier latency follows the same operator family. These values shift
// pipeline fill latency, not steady-state throughput, and are configurable
// for ablations.
#pragma once

#include "common/error.hpp"

namespace dfc::hls {

struct OpLatency {
  int fmul = 8;  ///< float multiply pipeline depth (cycles)
  int fadd = 11; ///< float add pipeline depth (cycles)

  /// Deepest operator pipeline modelled; the cores size their in-flight
  /// registers from these latencies.
  static constexpr int kMax = 256;

  bool valid() const { return fmul >= 1 && fadd >= 1 && fmul <= kMax && fadd <= kMax; }

  void validate() const {
    DFC_REQUIRE(valid(), "operator latencies must be 1..256 cycles");
  }
};

}  // namespace dfc::hls
