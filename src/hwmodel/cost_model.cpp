#include "hwmodel/cost_model.hpp"

#include <cmath>

#include "common/math_util.hpp"
#include "common/table.hpp"

namespace dfc::hw {

using dfc::core::ConvLayerSpec;
using dfc::core::FcnLayerSpec;
using dfc::core::LayerSpec;
using dfc::core::NetworkSpec;
using dfc::core::PoolLayerSpec;

namespace {

ResourceUsage ops(const OperatorCost& cost, double count) {
  return ResourceUsage{cost.lut * count, cost.ff * count, 0.0, cost.dsp * count};
}

/// 32-bit-wide memory of `depth` words: SRL below the threshold, BRAM18
/// blocks (granularity 512x36) above it.
ResourceUsage memory_cost(std::int64_t depth, const CostModel& m) {
  if (depth <= 0) return {};
  if (depth <= m.srl_max_depth) {
    return ResourceUsage{32.0 + static_cast<double>(depth), 32.0, 0.0, 0.0};
  }
  const double bram18 = static_cast<double>(dfc::ceil_div(depth, 512));
  return ResourceUsage{16.0, 16.0, 0.5 * bram18, 0.0};
}

/// `count` parallel ROMs of `depth` 32-bit words each.
ResourceUsage rom_cost(std::int64_t count, std::int64_t depth, const CostModel& m) {
  if (depth <= 2) {
    // Hard constants folded into the datapath.
    return ResourceUsage{8.0 * static_cast<double>(count * depth),
                         0.0, 0.0, 0.0};
  }
  ResourceUsage one = memory_cost(depth, m);
  return one * static_cast<double>(count);
}

/// SST memory structure of one port: the line buffer holds KH rows of the
/// port's interleaved channels (full buffering) and the window register
/// slices are fully partitioned FFs.
ResourceUsage memory_structure_cost(std::int64_t in_w, int kh, int kw, std::int64_t channels,
                                    const CostModel& m) {
  const std::int64_t depth = static_cast<std::int64_t>(kh) * in_w * channels;
  ResourceUsage r = memory_cost(depth, m);
  r.ff += static_cast<double>(kh) * kw * 32.0;  // window registers
  r.lut += 150.0;                               // fill/tap control logic
  return r;
}

}  // namespace

ResourceUsage estimate_layer(const LayerSpec& layer, const CostModel& m) {
  ResourceUsage r;
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
    const std::int64_t ii = conv->initiation_interval();
    const std::int64_t taps = static_cast<std::int64_t>(conv->kh) * conv->kw;
    // One output position needs out_fm * in_fm * taps MACs, spread over the
    // position interval II by HLS operator sharing.
    const std::int64_t macs_per_position = conv->out_fm * conv->in_shape.c * taps;
    const std::int64_t muls = dfc::ceil_div(macs_per_position, ii);
    // Tree adders + the accumulate into the partial-sum register.
    const std::int64_t adds = dfc::ceil_div(macs_per_position, ii);
    r += ops(m.fmul, static_cast<double>(muls));
    r += ops(m.fadd_dsp, static_cast<double>(adds));

    // One ROM per parallel multiplier, each cycling through W_total/muls
    // weights (depth ~ II for a balanced allocation).
    const std::int64_t total_weights = conv->out_fm * conv->in_shape.c * taps;
    r += rom_cost(muls, dfc::ceil_div(total_weights, muls), m);

    const std::int64_t per_port_channels = conv->in_shape.c / conv->in_ports;
    for (int p = 0; p < conv->in_ports; ++p) {
      r += memory_structure_cost(conv->in_shape.w, conv->kh, conv->kw, per_port_channels, m);
    }
    // Partial-sum and ping-pong output registers.
    r.ff += static_cast<double>(2 * conv->out_fm) * 32.0;
    r += ops(m.conv_control, 1.0);
  } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
    const std::int64_t taps = static_cast<std::int64_t>(pool->kh) * pool->kw;
    const std::int64_t per_port_channels = pool->in_shape.c / pool->ports;
    for (int p = 0; p < pool->ports; ++p) {
      r += memory_structure_cost(pool->in_shape.w, pool->kh, pool->kw, per_port_channels, m);
      if (pool->mode == dfc::hls::PoolMode::kMax) {
        r += ops(m.fcmp, static_cast<double>(taps - 1));
      } else {
        r += ops(m.fadd_logic, static_cast<double>(taps - 1));
        r += ops(m.fmul, 1.0);  // the 1/(kh*kw) scale
      }
      r += ops(m.pool_control, 1.0);
    }
  } else {
    const auto& fcn = std::get<FcnLayerSpec>(layer);
    // One multiplier and one logic accumulator per output neuron, all active
    // each cycle; lanes are registers.
    r += ops(m.fmul, static_cast<double>(fcn.out_count));
    r += ops(m.fadd_logic, static_cast<double>(fcn.out_count));
    r.ff += static_cast<double>(fcn.out_count * fcn.num_accumulators) * 32.0;
    r += rom_cost(fcn.out_count, fcn.in_count, m);
    r += ops(m.fcn_control, 1.0);
  }
  return r;
}

DesignEstimate estimate_design(const NetworkSpec& spec, const CostModel& m) {
  DesignEstimate est;
  est.base = m.base_design;

  ResourceUsage sum;
  int prev_ports = 1;
  for (const LayerSpec& layer : spec.layers) {
    ResourceUsage r = estimate_layer(layer, m);
    // Port adapters between this layer and the previous interface.
    const int in_ports = dfc::core::layer_in_ports(layer);
    if (in_ports != prev_ports) {
      const int adapters = std::max(prev_ports, in_ports) / std::max(1, std::min(prev_ports, in_ports)) *
                           std::min(prev_ports, in_ports);
      r += ops(m.adapter, static_cast<double>(adapters));
    }
    prev_ports = dfc::core::layer_out_ports(layer);
    est.per_layer.push_back(r);
    sum += r;
  }

  sum.lut *= m.lut_calibration;
  sum.ff *= m.ff_calibration;
  est.total = sum + est.base;
  return est;
}

std::vector<ResourceUsage> usage_per_device(const NetworkSpec& spec,
                                            const std::vector<std::size_t>& layer_device,
                                            std::size_t num_devices, const CostModel& m) {
  DFC_REQUIRE(layer_device.empty() || layer_device.size() == spec.layers.size(),
              "layer_device must cover every layer");
  std::vector<ResourceUsage> usage(num_devices);
  std::vector<bool> hosts_layer(num_devices, false);
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const std::size_t d = layer_device.empty() ? 0 : layer_device[i];
    DFC_REQUIRE(d < num_devices, "layer mapped to unknown device");
    usage[d] += estimate_layer(spec.layers[i], m);
    hosts_layer[d] = true;
  }
  for (std::size_t d = 0; d < num_devices; ++d) {
    usage[d].lut *= m.lut_calibration;
    usage[d].ff *= m.ff_calibration;
    if (hosts_layer[d]) usage[d] += m.base_design;
  }
  return usage;
}

std::string utilization_row(const NetworkSpec& spec, const Device& device,
                            const CostModel& m) {
  const DesignEstimate est = estimate_design(spec, m);
  const ResourceUsage u = device.utilization(est.total);
  return spec.name + ": FF " + dfc::fmt_percent(u.ff) + ", LUT " + dfc::fmt_percent(u.lut) +
         ", BRAM " + dfc::fmt_percent(u.bram36) + ", DSP " + dfc::fmt_percent(u.dsp);
}

}  // namespace dfc::hw
