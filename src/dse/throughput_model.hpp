// Analytical timing model of a compiled design.
//
// At steady state the whole network behaves as a high-level pipeline whose
// interval is its slowest stage (paper Sec. IV-C: "the pipeline interval is
// its slowest stage time"). Per stage, the cycles spent on one image are
// bounded by both the ingest side (one stream element per port per cycle)
// and the compute side (II cycles per output position):
//
//   conv:  max(in_h*in_w*in_fm/in_ports, out_positions * II)
//   pool:  in_h*in_w*channels/ports           (II = 1 per window)
//   fcn:   in_count (+ out_count emission overlap)
//   DMA:   image volume on the input side, outputs on the output side
//   link:  on a multi-board cut, every device boundary carries the producing
//          layer's output volume per image, split over its ports, at the
//          credit law's sustained rate (InterLinkModel::effective_cycles_per_word)
//
// The model predicts the Fig. 6 convergence value without running the
// simulator. It is the objective function of the DSE and the multi-board
// partitioner and the interval the static verifier reports; the simulator is
// the ground truth it is validated against (tests/dse, tests/multifpga).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interlink.hpp"
#include "core/network_spec.hpp"

namespace dfc::dse {

struct StageTiming {
  std::string name;
  std::int64_t cycles_per_image = 0;
};

struct TimingEstimate {
  std::vector<StageTiming> stages;
  std::int64_t interval_cycles = 0;  ///< steady-state cycles per image
  std::int64_t bottleneck_stage = -1;

  double images_per_second(double clock_hz = 100e6) const {
    return clock_hz / static_cast<double>(interval_cycles);
  }
};

/// Stages in pipeline order (dma-in, one per layer, dma-out), then one
/// "link<i>-><i+1>" stage per device boundary of `layer_device` (empty: one
/// device), in layer order. `link.credits > 0` models a credit-limited link.
TimingEstimate estimate_timing(const dfc::core::NetworkSpec& spec,
                               const std::vector<std::size_t>& layer_device = {},
                               const dfc::core::InterLinkModel& link = {});

}  // namespace dfc::dse
