// Analytical resource estimation for compiled network designs (Table I).
//
// The model prices each layer core from its operator counts under II-sharing
// (HLS allocates ceil(ops_per_position / II) parallel operator instances),
// its memory structure (line buffers / filter-chain FIFOs, window
// registers), and its weight ROMs, plus the MicroBlaze/DMA/interconnect base
// design of the paper's test setup. Per-operator costs follow the Xilinx
// 7-series floating-point operator datasheet at 100 MHz:
//   * fmul  : 3 DSP (max-DSP usage) + logic;
//   * fadd  : 2 DSP (full usage) in convolution tree adders; the FCN
//             interleaved accumulators are priced as logic adders, which is
//             what brings both test cases within a few points of Table I;
//   * storage: depths <= 32 map to SRL/LUTRAM, deeper memories to BRAM18
//             blocks (counted in BRAM36 units), matching HLS defaults.
// A single calibration factor absorbs interface/pipeline overhead the
// per-operator prices do not see. All constants live in CostModel and are
// overridable for sensitivity studies.
#pragma once

#include <string>
#include <vector>

#include "core/network_spec.hpp"
#include "hwmodel/device.hpp"

namespace dfc::hw {

struct OperatorCost {
  double dsp = 0;
  double lut = 0;
  double ff = 0;
};

struct CostModel {
  OperatorCost fmul{3, 85, 150};
  OperatorCost fadd_dsp{2, 230, 400};
  OperatorCost fadd_logic{0, 430, 600};
  OperatorCost fcmp{0, 100, 80};  ///< float compare (max pooling)

  /// Per-core control/FSM/stream-interface overhead.
  OperatorCost conv_control{0, 800, 1200};
  OperatorCost pool_control{0, 300, 400};
  OperatorCost fcn_control{0, 500, 800};
  OperatorCost adapter{0, 100, 120};  ///< demux/merge core

  /// Storage mapping threshold: depths above this go to BRAM18.
  std::int64_t srl_max_depth = 32;

  /// Calibration for logic not covered by per-operator prices (routing,
  /// pipeline balancing, AXI shims).
  double lut_calibration = 1.25;
  double ff_calibration = 1.25;

  /// MicroBlaze + AXI DMA + interconnect + timer base design (Sec. V-A).
  ResourceUsage base_design{12'000, 14'000, 32, 6};
};

/// Estimated usage of one layer (before calibration; the aggregate applies
/// calibration once).
ResourceUsage estimate_layer(const dfc::core::LayerSpec& layer, const CostModel& model = {});

struct DesignEstimate {
  ResourceUsage total;                    ///< calibrated, including base design
  std::vector<ResourceUsage> per_layer;   ///< uncalibrated per-layer breakdown
  ResourceUsage base;                     ///< the base design share
};

DesignEstimate estimate_design(const dfc::core::NetworkSpec& spec,
                               const CostModel& model = {});

/// Calibrated usage of each device under a layer -> device mapping (empty:
/// every layer on device 0), including one base design on every device that
/// hosts at least one layer. Unlike estimate_design, port adapters are not
/// priced: this is the per-board sum the partitioner and the verifier's
/// budget check compare against a device.
std::vector<ResourceUsage> usage_per_device(const dfc::core::NetworkSpec& spec,
                                            const std::vector<std::size_t>& layer_device,
                                            std::size_t num_devices,
                                            const CostModel& model = {});

/// Renders the Table I row for `spec` on `device`: utilization percentages
/// for FF / LUT / BRAM / DSP.
std::string utilization_row(const dfc::core::NetworkSpec& spec, const Device& device,
                            const CostModel& model = {});

}  // namespace dfc::hw
