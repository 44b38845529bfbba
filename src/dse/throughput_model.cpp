#include "dse/throughput_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace dfc::dse {

using dfc::core::ConvLayerSpec;
using dfc::core::FcnLayerSpec;
using dfc::core::NetworkSpec;
using dfc::core::PoolLayerSpec;

TimingEstimate estimate_timing(const NetworkSpec& spec,
                               const std::vector<std::size_t>& layer_device,
                               const dfc::core::InterLinkModel& link) {
  spec.validate();
  DFC_REQUIRE(layer_device.empty() || layer_device.size() == spec.layers.size(),
              "layer_device must cover every layer");
  TimingEstimate est;

  est.stages.push_back({"dma-in", spec.input_shape.volume()});

  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const auto& layer = spec.layers[i];
    StageTiming st;
    st.name = "L" + std::to_string(i);
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      const std::int64_t ingest = conv->in_shape.plane() * conv->in_shape.c / conv->in_ports;
      const std::int64_t compute = conv->out_shape().plane() * conv->initiation_interval();
      st.cycles_per_image = std::max(ingest, compute);
      st.name += ".conv";
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      st.cycles_per_image = pool->in_shape.plane() * pool->in_shape.c / pool->ports;
      st.name += ".pool";
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      // Input phase dominates; emission of the previous image overlaps it
      // unless the core is tiny.
      st.cycles_per_image = std::max(fcn.in_count, fcn.out_count);
      st.name += ".fcn";
    }
    est.stages.push_back(st);
  }

  est.stages.push_back({"dma-out", spec.output_shape().volume()});

  if (!layer_device.empty()) {
    const std::int64_t cycles_per_word = link.effective_cycles_per_word();
    for (std::size_t i = 0; i + 1 < spec.layers.size(); ++i) {
      if (layer_device[i + 1] == layer_device[i]) continue;
      const std::int64_t words = dfc::core::layer_out_shape(spec.layers[i]).volume();
      const int ports = dfc::core::layer_out_ports(spec.layers[i]);
      est.stages.push_back({"link" + std::to_string(i) + "->" + std::to_string(i + 1),
                            dfc::ceil_div(words, ports) * cycles_per_word});
    }
  }

  est.interval_cycles = 0;
  for (std::size_t i = 0; i < est.stages.size(); ++i) {
    if (est.stages[i].cycles_per_image > est.interval_cycles) {
      est.interval_cycles = est.stages[i].cycles_per_image;
      est.bottleneck_stage = static_cast<std::int64_t>(i);
    }
  }
  return est;
}

}  // namespace dfc::dse
