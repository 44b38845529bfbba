// Sub-sampling (pooling) computation core (paper Sec. II-A / IV-C).
//
// Pooling applies a KHxKW window per channel independently (no combination
// across feature maps), so one PoolCore is instantiated per upstream port
// and acts "as a standard filter inserted between the convolutional layers":
// it consumes one window per cycle and emits one value per cycle (perfect
// pipelining, II = 1).
#pragma once

#include <cstdint>
#include <string>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "hlscore/op_latency.hpp"
#include "obs/activity.hpp"
#include "sst/window.hpp"

namespace dfc::hls {

enum class PoolMode { kMax, kMean };

inline const char* pool_mode_name(PoolMode m) {
  return m == PoolMode::kMax ? "max" : "mean";
}

struct PoolCoreConfig {
  PoolMode mode = PoolMode::kMax;
  int kh = 2;
  int kw = 2;
  OpLatency latency{};

  void validate() const {
    latency.validate();
    DFC_REQUIRE(kh >= 1 && kw >= 1 && kh * kw <= sst::WindowGeometry::kMaxTaps,
                "pool window size unsupported");
  }
  std::int64_t taps() const { return static_cast<std::int64_t>(kh) * kw; }
};

class PoolCore final : public dfc::df::Process {
 public:
  PoolCore(std::string name, PoolCoreConfig config, dfc::df::Fifo<sst::Window>& window_in,
           dfc::df::Fifo<dfc::axis::Flit>& stream_out);

  void on_clock() override;
  void reset() override {
    outputs_produced_ = 0;
    activity_.reset();
  }
  // With input available the core either pools or notes an output stall
  // every cycle; without input it is fully idle.
  std::uint64_t wake_cycle() const override { return in_.can_pop() ? now() : kNeverWake; }
  dfc::df::Ports ports() const override { return {{&in_}, {&out_}}; }

  const PoolCoreConfig& config() const { return cfg_; }
  std::uint64_t outputs_produced() const { return outputs_produced_; }

  /// Cycles in which the core processed a window (= outputs, II is 1).
  std::uint64_t work_cycles() const { return outputs_produced_; }

  /// Per-cycle activity attribution (only while the context observes). A
  /// pool's window stream is sparse by design — the window buffer emits one
  /// window per stride position — so an empty input is the core's natural
  /// duty cycle and counts as idle, never starved.
  const obs::CoreActivity& activity() const { return activity_.counts(); }

 private:
  PoolCoreConfig cfg_;
  dfc::df::Fifo<sst::Window>& in_;
  dfc::df::Fifo<dfc::axis::Flit>& out_;
  std::uint64_t outputs_produced_ = 0;
  obs::ActivityTracker activity_;
};

}  // namespace dfc::hls
