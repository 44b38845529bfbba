#include "core/network_spec.hpp"

#include <sstream>

#include "common/error.hpp"
#include "hlscore/fcn_core.hpp"
#include "sst/window.hpp"

namespace dfc::core {

using dfc::verify::Code;
using dfc::verify::Diagnostic;

Shape3 layer_out_shape(const LayerSpec& layer) {
  return std::visit([](const auto& l) { return l.out_shape(); }, layer);
}

int layer_in_ports(const LayerSpec& layer) {
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) return conv->in_ports;
  if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) return pool->ports;
  return 1;
}

int layer_out_ports(const LayerSpec& layer) {
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) return conv->out_ports;
  if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) return pool->ports;
  return 1;
}

std::string layer_describe(const LayerSpec& layer) {
  std::ostringstream os;
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
    os << "conv " << conv->kh << "x" << conv->kw << " " << conv->in_shape.c << "->"
       << conv->out_fm << " on " << conv->in_shape.h << "x" << conv->in_shape.w
       << " stride " << conv->stride;
    if (conv->pad > 0) os << " pad " << conv->pad;
    os << " ports " << conv->in_ports << "/"
       << conv->out_ports << " II=" << conv->initiation_interval() << " act "
       << dfc::hls::activation_name(conv->act);
    if (conv->use_filter_chain) os << " [filter-chain]";
  } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
    os << dfc::hls::pool_mode_name(pool->mode) << "-pool " << pool->kh << "x" << pool->kw
       << " stride " << pool->stride << " ch " << pool->in_shape.c << " on "
       << pool->in_shape.h << "x" << pool->in_shape.w << " cores " << pool->ports;
  } else {
    const auto& fcn = std::get<FcnLayerSpec>(layer);
    os << "fcn " << fcn.in_count << "->" << fcn.out_count << " acc "
       << fcn.num_accumulators << " act " << dfc::hls::activation_name(fcn.act);
  }
  return os.str();
}

Shape3 NetworkSpec::output_shape() const {
  DFC_REQUIRE(!layers.empty(), "network has no layers");
  return layer_out_shape(layers.back());
}

void NetworkSpec::validate() const { dfc::verify::throw_if_any(check_spec(*this)); }

std::vector<Diagnostic> check_spec(const NetworkSpec& spec) {
  std::vector<Diagnostic> out;
  if (spec.layers.empty()) {
    out.push_back({Code::DF101, "network", "network has no layers"});
    return out;
  }

  // Every extent stays small enough that volumes, weight-table sizes and
  // FLOP counts cannot overflow int64.
  constexpr std::int64_t kMaxExtent = std::int64_t{1} << 16;
  const auto extents_fit = [&](const std::string& where, const std::string& what,
                               std::initializer_list<std::int64_t> extents) {
    for (std::int64_t e : extents) {
      if (e < 1 || e > kMaxExtent) {
        out.push_back({Code::DF101, where,
                       what + " must be 1.." + std::to_string(kMaxExtent) + " in every extent"});
        return false;
      }
    }
    return true;
  };

  Shape3 shape = spec.input_shape;
  if (!extents_fit("network", "input shape " + shape.str(), {shape.c, shape.h, shape.w})) {
    return out;
  }
  if (!spec.latency.valid()) {
    out.push_back({Code::DF101, "network",
                   "operator latencies (fmul " + std::to_string(spec.latency.fmul) + ", fadd " +
                       std::to_string(spec.latency.fadd) + ") must be 1.." +
                       std::to_string(OpLatency::kMax) + " cycles"});
  }

  // A window must fit the core's tap registers and the (padded) input.
  const auto window_fits = [&](const std::string& where, const Shape3& in, int kh, int kw,
                               int pad) {
    const std::string window = std::to_string(kh) + "x" + std::to_string(kw);
    std::string why;
    if (std::int64_t{kh} * kw > dfc::sst::WindowGeometry::kMaxTaps) {
      why = "window " + window + " has more than " +
            std::to_string(dfc::sst::WindowGeometry::kMaxTaps) + " taps";
    } else if (pad >= kh || pad >= kw) {
      why = "padding " + std::to_string(pad) + " must be below the " + window + " window";
    } else if (kh > in.h + 2 * std::int64_t{pad} || kw > in.w + 2 * std::int64_t{pad}) {
      why = "window " + window + " does not fit the padded " + in.str() + " input";
    }
    if (!why.empty()) out.push_back({Code::DF101, where, why});
    return why.empty();
  };
  // Words the memory structures buffer: kh rows of every channel per layer.
  // Past 2^24 (more on-chip RAM than any FPGA has) the builder's line
  // buffers would exhaust the host instead.
  constexpr std::int64_t kMaxBufferedWords = std::int64_t{1} << 24;
  std::int64_t buffered_words = 0;

  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const auto& layer = spec.layers[i];
    const std::string where = "L" + std::to_string(i);

    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      if (!(conv->in_shape == shape)) {
        out.push_back({Code::DF101, where, "input shape mismatch, expected " + shape.str() +
                                               " got " + conv->in_shape.str()});
      }
      const Shape3& in = conv->in_shape;
      if (!extents_fit(where, "input shape " + in.str() + " and OUT_FM",
                       {in.c, in.h, in.w, conv->out_fm})) {
        return out;
      }
      if (conv->kh <= 0 || conv->kw <= 0 || conv->stride <= 0 || conv->pad < 0) {
        out.push_back({Code::DF101, where, "kernel and stride must be positive, padding not "
                                           "negative"});
        return out;  // the output shape is undefined
      }
      if (!window_fits(where, in, conv->kh, conv->kw, conv->pad)) return out;
      buffered_words += in.c * conv->kh * in.w;
      if (conv->in_ports <= 0 || conv->out_ports <= 0) {
        out.push_back({Code::DF102, where, "port counts must be positive"});
        shape = conv->out_shape();
        continue;
      }
      if (shape.c % conv->in_ports != 0) {
        out.push_back({Code::DF102, where,
                       "IN_FM (" + std::to_string(shape.c) + ") not divisible by IN_PORTS (" +
                           std::to_string(conv->in_ports) + ")"});
      }
      if (conv->out_fm % conv->out_ports != 0) {
        out.push_back({Code::DF102, where,
                       "OUT_FM (" + std::to_string(conv->out_fm) +
                           ") not divisible by OUT_PORTS (" +
                           std::to_string(conv->out_ports) + ")"});
      }
      const std::int64_t want_w = conv->out_fm * conv->in_shape.c * conv->kh * conv->kw;
      if (static_cast<std::int64_t>(conv->weights.size()) != want_w) {
        out.push_back({Code::DF103, where,
                       "weight table has " + std::to_string(conv->weights.size()) +
                           " entries, expected " + std::to_string(want_w)});
      }
      if (static_cast<std::int64_t>(conv->biases.size()) != conv->out_fm) {
        out.push_back({Code::DF103, where,
                       "bias table has " + std::to_string(conv->biases.size()) +
                           " entries, expected " + std::to_string(conv->out_fm)});
      }
      if (conv->pad > 0 && conv->use_filter_chain) {
        out.push_back({Code::DF104, where,
                       "the element-level filter chain supports only P = 0 "
                       "(zero-padding needs the fused memory structure)"});
      }
      shape = conv->out_shape();
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      if (!(pool->in_shape == shape)) {
        out.push_back({Code::DF101, where, "input shape mismatch, expected " + shape.str() +
                                               " got " + pool->in_shape.str()});
      }
      const Shape3& in = pool->in_shape;
      if (!extents_fit(where, "input shape " + in.str(), {in.c, in.h, in.w})) return out;
      if (pool->kh <= 0 || pool->kw <= 0 || pool->stride <= 0) {
        out.push_back({Code::DF101, where, "pool window and stride must be positive"});
        return out;  // the output shape is undefined
      }
      if (!window_fits(where, in, pool->kh, pool->kw, 0)) return out;
      buffered_words += in.c * pool->kh * in.w;
      if (pool->ports <= 0) {
        out.push_back({Code::DF102, where, "pool core count must be positive"});
        shape = pool->out_shape();
        continue;
      }
      if (shape.c % pool->ports != 0) {
        out.push_back({Code::DF102, where,
                       "channels (" + std::to_string(shape.c) + ") not divisible by cores (" +
                           std::to_string(pool->ports) + ")"});
      }
      shape = pool->out_shape();
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      if (fcn.in_count != shape.volume()) {
        out.push_back({Code::DF105, where,
                       "classifier expects " + std::to_string(fcn.in_count) +
                           " inputs but upstream delivers " + std::to_string(shape.volume())});
      }
      if (!extents_fit(where, "classifier output count", {fcn.out_count})) return out;
      std::int64_t want_w = 0;
      if (__builtin_mul_overflow(fcn.in_count, fcn.out_count, &want_w) ||
          static_cast<std::int64_t>(fcn.weights.size()) != want_w) {
        out.push_back({Code::DF103, where,
                       "weight table has " + std::to_string(fcn.weights.size()) +
                           " entries, expected " + std::to_string(fcn.in_count) + "x" +
                           std::to_string(fcn.out_count)});
      }
      if (fcn.num_accumulators < 1 ||
          fcn.num_accumulators > dfc::hls::FcnCoreConfig::kMaxAccumulators) {
        out.push_back({Code::DF102, where,
                       "accumulator interleave " + std::to_string(fcn.num_accumulators) +
                           " must be 1.." +
                           std::to_string(dfc::hls::FcnCoreConfig::kMaxAccumulators)});
      }
      if (static_cast<std::int64_t>(fcn.biases.size()) != fcn.out_count) {
        out.push_back({Code::DF103, where,
                       "bias table has " + std::to_string(fcn.biases.size()) +
                           " entries, expected " + std::to_string(fcn.out_count)});
      }
      shape = fcn.out_shape();
    }

    if (shape.c <= 0 || shape.h <= 0 || shape.w <= 0) {
      out.push_back({Code::DF101, where, "output shape " + shape.str() + " is not positive"});
      return out;  // downstream shapes are meaningless
    }

    // Divisibility between consecutive port counts, required by the
    // round-robin interleave (Sec. IV-A).
    if (i > 0) {
      const int up = layer_out_ports(spec.layers[i - 1]);
      const int down = layer_in_ports(layer);
      if (up > 0 && down > 0 &&
          !(up == down || (up < down && down % up == 0) || (up > down && up % down == 0))) {
        out.push_back({Code::DF102, where,
                       "incompatible port counts " + std::to_string(up) + " -> " +
                           std::to_string(down) + " (round-robin interleave needs one to "
                           "divide the other)"});
      }
    }
  }
  if (buffered_words > kMaxBufferedWords) {
    out.push_back({Code::DF101, "network",
                   "window buffers hold " + std::to_string(buffered_words) +
                       " words; at most " + std::to_string(kMaxBufferedWords) + " are supported"});
  }
  return out;
}

std::vector<Diagnostic> check_partition(const NetworkSpec& spec,
                                        const std::vector<std::size_t>& layer_device,
                                        bool require_monotone) {
  if (layer_device.size() != spec.layers.size()) {
    return {{Code::DF403, "partition",
             "layer_device has " + std::to_string(layer_device.size()) + " entries for " +
                 std::to_string(spec.layers.size()) + " layer(s)"}};
  }
  if (require_monotone) {
    for (std::size_t i = 1; i < layer_device.size(); ++i) {
      if (layer_device[i] < layer_device[i - 1]) {
        return {{Code::DF403, "L" + std::to_string(i),
                 "device assignment goes backwards (" + std::to_string(layer_device[i - 1]) +
                     " -> " + std::to_string(layer_device[i]) +
                     "); the design is a forward pipeline"}};
      }
    }
  }
  return {};
}

std::int64_t NetworkSpec::flops_per_image() const {
  std::int64_t total = 0;
  for (const LayerSpec& layer : layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      const Shape3 os = conv->out_shape();
      const std::int64_t macs =
          os.plane() * conv->out_fm * conv->in_shape.c * conv->kh * conv->kw;
      total += 2 * macs + os.plane() * conv->out_fm;  // + bias adds
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      if (pool->mode == PoolMode::kMean) {
        const Shape3 os = pool->out_shape();
        total += os.volume() * (pool->kh * pool->kw);  // adds + divide amortized
      }
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      total += 2 * fcn.in_count * fcn.out_count + fcn.out_count;
    }
  }
  return total;
}

std::string NetworkSpec::describe() const {
  std::ostringstream os;
  os << "network '" << name << "' input " << input_shape.str() << "\n";
  Shape3 shape = input_shape;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    shape = layer_out_shape(layers[i]);
    os << "  [" << i << "] " << layer_describe(layers[i]) << " -> " << shape.str() << "\n";
  }
  os << "  flops/image: " << flops_per_image() << "\n";
  return os.str();
}

}  // namespace dfc::core
