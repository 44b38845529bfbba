// Convolutional-layer computation core (paper Sec. IV-A, Algorithm 1).
//
// The core reads IN_PORTS windows per beat from the SST memory structures,
// multiplies them with design-time weights, reduces via a tree adder into
// OUT_FM partial-sum registers, and — once all IN_FM/IN_PORTS input groups
// of an output position are accumulated — streams the OUT_FM results over
// OUT_PORTS output channels, OUT_PORTS values per beat.
//
// Gather and emission overlap through a ping-pong output register bank, so
// the steady-state initiation interval per output position is
//     II = max(OUT_FM/OUT_PORTS, IN_FM/IN_PORTS)            (paper Eq. 4).
// Results become available for emission only `pipeline_latency()` cycles
// after the last gather beat, modelling the mul + adder-tree + accumulate
// pipeline depth of the HLS kernel.
//
// Like the hardware's one tree adder per output FM, the simulated core
// reduces all OUT_FM partial sums of a beat side by side: ConvLanes output
// FMs per vector, every lane doing the same adds in tree_reduce's order, so
// each lane is bit-identical to a scalar tree_reduce (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "hlscore/activation.hpp"
#include "hlscore/op_latency.hpp"
#include "obs/activity.hpp"
#include "sst/window.hpp"

namespace dfc::hls {

/// Output FMs one vector of the lane-parallel adder tree holds (one SSE
/// register of floats; OUT_FM is padded up to a multiple of it).
inline constexpr std::size_t kConvLanes = 4;
using ConvLanes = float __attribute__((vector_size(kConvLanes * sizeof(float))));

struct ConvCoreConfig {
  int in_ports = 1;
  int out_ports = 1;
  std::int64_t in_fm = 1;
  std::int64_t out_fm = 1;
  int kh = 1;
  int kw = 1;
  std::int64_t out_positions = 0;  ///< output positions (out_w * out_h) per image

  /// Weights laid out [out_fm][in_fm][kh*kw]; biases one per output FM.
  std::vector<float> weights;
  std::vector<float> biases;

  Activation activation = Activation::kNone;
  OpLatency latency{};

  /// First absolute output-channel index (0 for whole-layer cores).
  std::int64_t out_channel_base = 0;

  void validate() const;

  std::int64_t taps() const { return static_cast<std::int64_t>(kh) * kw; }
  std::int64_t gather_beats() const { return in_fm / in_ports; }
  std::int64_t emit_beats() const { return out_fm / out_ports; }

  /// Paper Eq. 4.
  std::int64_t initiation_interval() const {
    return std::max(emit_beats(), gather_beats());
  }

  /// Cycles between the last gather beat of a position and the availability
  /// of its outputs: multiplier depth, adder-tree depth over the per-beat
  /// products, and the final accumulate into the partial-sum register.
  std::int64_t pipeline_latency() const;

  float weight(std::int64_t k, std::int64_t c, std::int64_t tap) const {
    return weights[static_cast<std::size_t>((k * in_fm + c) * taps() + tap)];
  }
};

class ConvCore final : public dfc::df::Process {
 public:
  ConvCore(std::string name, ConvCoreConfig config,
           std::vector<dfc::df::Fifo<sst::Window>*> window_in,
           std::vector<dfc::df::Fifo<dfc::axis::Flit>*> stream_out);

  void on_clock() override;
  void reset() override;
  bool done() const override { return in_flight_ == 0 && group_ == 0; }
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override;

  std::uint64_t positions_completed() const { return positions_completed_; }

  /// Cycles the core wanted to start a position but both register banks were
  /// busy (emission-bound back-pressure); used by ablation benches.
  std::uint64_t gather_stall_cycles() const { return gather_stalls_; }

  /// Cycles in which the core did any work (gathered a beat or emitted one);
  /// divided by elapsed cycles this is the stage utilization.
  std::uint64_t work_cycles() const { return work_cycles_; }

  /// Per-cycle activity attribution; populated only while the owning context
  /// observes (see obs/activity.hpp).
  const obs::CoreActivity& activity() const { return activity_.counts(); }

 private:
  void try_emit();
  // Aligned to a cache line so link order cannot shift the hot loop's
  // fetch alignment between builds.
  [[gnu::aligned(64)]] void try_gather();
  /// Multiplies the beat's input row with its weights, reduces the products
  /// in the lane-parallel tree and accumulates them into the gathered
  /// position's partial-sum bank (skipped in timing-only runs).
  void accumulate_beat();

  /// Partial-sum bank `slot` of the in-flight ring (`blocks_` vectors).
  ConvLanes* bank(std::size_t slot) { return &banks_[slot * blocks_]; }
  /// Ring slot of the position being gathered: always free, since the ring
  /// has one slot more than the pipeline holds.
  std::size_t gather_slot() const { return (head_ + in_flight_) % slots_.size(); }

  ConvCoreConfig cfg_;  ///< weights and biases moved into the banks below
  std::vector<dfc::df::Fifo<sst::Window>*> win_in_;
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> out_;

  // Transposed weight bank [gather beat][product n = p*taps + t][block of
  // kConvLanes output FMs], padded with zero weights past OUT_FM; biases
  // padded the same way.
  std::size_t products_ = 0;  ///< IN_PORTS * taps products per output FM and beat
  std::size_t blocks_ = 0;    ///< OUT_FM / kConvLanes, rounded up
  std::vector<ConvLanes> weight_bank_;
  std::vector<ConvLanes> bias_bank_;
  std::vector<float> row_;         ///< one beat's IN_PORTS * taps window values
  std::vector<ConvLanes> levels_;  ///< adder-tree levels, ceil(products/2) x blocks_

  std::int64_t group_ = 0;  ///< next gather beat within the current position
  std::int64_t position_in_image_ = 0;

  // Completed positions travelling through the core's pipeline registers:
  // each becomes emittable `pipeline_latency()` cycles after its last gather
  // beat. The ring depth models the pipeline stages, so latency never
  // throttles the steady-state initiation interval. The ring holds
  // in_flight_limit_ + 1 preallocated partial-sum banks: in_flight_ of them
  // from head_ on are in the pipeline, the next one is being gathered.
  struct InFlight {
    bool last_of_image = false;
    std::uint64_t ready_cycle = 0;
  };
  std::vector<InFlight> slots_;
  std::vector<ConvLanes> banks_;
  std::size_t head_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t in_flight_limit_ = 2;
  std::int64_t emit_beat_ = 0;

  std::uint64_t positions_completed_ = 0;
  std::uint64_t gather_stalls_ = 0;
  std::uint64_t work_cycles_ = 0;
  bool worked_this_cycle_ = false;

  // Observation-only bookkeeping (obs_enabled_ gated; see process.hpp).
  obs::ActivityTracker activity_;
  bool blocked_output_ = false;  ///< emit refused by a full output port this cycle
  bool blocked_retire_ = false;  ///< gather refused by a full pipeline queue this cycle
};

}  // namespace dfc::hls
