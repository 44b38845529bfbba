#include "core/builder.hpp"

#include "axis/flit.hpp"
#include "sst/filter_chain.hpp"
#include "sst/port_adapters.hpp"
#include "sst/window_buffer.hpp"
#include "verify/diagnostics.hpp"

namespace dfc::core {

using dfc::axis::Flit;
using dfc::df::Fifo;
using dfc::df::SimContext;
using dfc::sst::Window;

namespace {

/// Instantiates the memory structure of one port: fused window buffer or the
/// element-level filter chain.
void build_memory_structure(SimContext& ctx, const std::string& name,
                            const dfc::sst::WindowGeometry& geom, bool use_filter_chain,
                            Fifo<Flit>& in, Fifo<Window>& out) {
  if (use_filter_chain) {
    dfc::sst::build_filter_chain(ctx, name, geom, in, out);
  } else {
    ctx.add_process<dfc::sst::WindowBuffer>(name, geom, in, out);
  }
}

}  // namespace

std::vector<Fifo<Flit>*> adapt_stream_ports(SimContext& ctx, const std::string& name,
                                            std::vector<Fifo<Flit>*> streams,
                                            std::int64_t channels, int target,
                                            std::size_t fifo_capacity) {
  const int up = static_cast<int>(streams.size());
  if (up == target) return streams;

  std::vector<Fifo<Flit>*> out(static_cast<std::size_t>(target), nullptr);
  if (up < target) {
    if (target % up != 0) {
      throw verify::VerifyError({verify::Code::DF102, name,
                                 "cannot fan out " + std::to_string(up) + " stream(s) to " +
                                     std::to_string(target) +
                                     " port(s): the round-robin interleave needs the upstream "
                                     "count to divide the downstream count"});
    }
    if (channels % target != 0) {
      throw verify::VerifyError({verify::Code::DF102, name,
                                 std::to_string(channels) + " channel(s) not divisible by " +
                                     std::to_string(target) + " target port(s)"});
    }
    const int fan = target / up;
    for (int p = 0; p < up; ++p) {
      std::vector<Fifo<Flit>*> targets;
      targets.reserve(static_cast<std::size_t>(fan));
      for (int i = 0; i < fan; ++i) {
        const int q = p + i * up;  // downstream ports congruent to p (mod up)
        auto& f = ctx.add_fifo<Flit>(name + ".demux" + std::to_string(p) + "_" +
                                         std::to_string(q),
                                     fifo_capacity);
        out[static_cast<std::size_t>(q)] = &f;
        targets.push_back(&f);
      }
      const std::int64_t group = channels / up;  // FM slots per pixel on this port
      ctx.add_process<dfc::sst::PortDemux>(name + ".demux" + std::to_string(p), group,
                                           *streams[static_cast<std::size_t>(p)],
                                           std::move(targets));
    }
    return out;
  }

  if (up % target != 0) {
    throw verify::VerifyError({verify::Code::DF102, name,
                               "cannot merge " + std::to_string(up) + " stream(s) into " +
                                   std::to_string(target) +
                                   " port(s): the round-robin interleave needs the downstream "
                                   "count to divide the upstream count"});
  }
  const int fan = up / target;
  for (int q = 0; q < target; ++q) {
    std::vector<Fifo<Flit>*> sources;
    sources.reserve(static_cast<std::size_t>(fan));
    for (int i = 0; i < fan; ++i) {
      sources.push_back(streams[static_cast<std::size_t>(q + i * target)]);
    }
    auto& f = ctx.add_fifo<Flit>(name + ".merged" + std::to_string(q), fifo_capacity);
    out[static_cast<std::size_t>(q)] = &f;
    const std::int64_t rounds = channels / up;  // FM slots per pixel per upstream port
    ctx.add_process<dfc::sst::PortMerge>(name + ".merge" + std::to_string(q),
                                         std::max<std::int64_t>(rounds, 1),
                                         std::move(sources), f);
  }
  return out;
}

SegmentStreams append_layer_segment(SimContext& ctx, const NetworkSpec& spec,
                                    std::size_t first, std::size_t last, SegmentStreams in,
                                    const BuildOptions& options, const std::string& prefix,
                                    SegmentCores& cores) {
  std::vector<Fifo<Flit>*> streams = std::move(in.streams);
  Shape3 shape = in.shape;

  for (std::size_t li = first; li < last; ++li) {
    const LayerSpec& layer = spec.layers[li];
    const std::string lname = prefix + "L" + std::to_string(li);

    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      streams = adapt_stream_ports(ctx, lname, std::move(streams), shape.c, conv->in_ports,
                                   options.stream_fifo_capacity);

      dfc::sst::WindowGeometry geom;
      geom.in_w = shape.w;
      geom.in_h = shape.h;
      geom.kh = conv->kh;
      geom.kw = conv->kw;
      geom.stride_y = geom.stride_x = conv->stride;
      geom.channels = shape.c / conv->in_ports;
      geom.pad = conv->pad;

      std::vector<Fifo<Window>*> windows;
      for (int p = 0; p < conv->in_ports; ++p) {
        auto& wf = ctx.add_fifo<Window>(lname + ".win" + std::to_string(p),
                                        options.window_fifo_capacity);
        build_memory_structure(ctx, lname + ".mem" + std::to_string(p), geom,
                               conv->use_filter_chain, *streams[static_cast<std::size_t>(p)],
                               wf);
        windows.push_back(&wf);
      }

      const Shape3 out_shape = conv->out_shape();
      std::vector<Fifo<Flit>*> outs;
      for (int p = 0; p < conv->out_ports; ++p) {
        outs.push_back(&ctx.add_fifo<Flit>(lname + ".out" + std::to_string(p),
                                           options.stream_fifo_capacity));
      }

      dfc::hls::ConvCoreConfig cfg;
      cfg.in_ports = conv->in_ports;
      cfg.out_ports = conv->out_ports;
      cfg.in_fm = shape.c;
      cfg.out_fm = conv->out_fm;
      cfg.kh = conv->kh;
      cfg.kw = conv->kw;
      cfg.out_positions = out_shape.plane();
      cfg.weights = conv->weights;
      cfg.biases = conv->biases;
      cfg.activation = conv->act;
      cfg.latency = spec.latency;
      cores.conv_cores.push_back(
          &ctx.add_process<dfc::hls::ConvCore>(lname + ".conv", std::move(cfg), windows, outs));

      streams = std::move(outs);
      shape = out_shape;
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      streams = adapt_stream_ports(ctx, lname, std::move(streams), shape.c, pool->ports,
                                   options.stream_fifo_capacity);

      dfc::sst::WindowGeometry geom;
      geom.in_w = shape.w;
      geom.in_h = shape.h;
      geom.kh = pool->kh;
      geom.kw = pool->kw;
      geom.stride_y = geom.stride_x = pool->stride;
      geom.channels = shape.c / pool->ports;

      std::vector<Fifo<Flit>*> outs;
      for (int p = 0; p < pool->ports; ++p) {
        auto& wf = ctx.add_fifo<Window>(lname + ".win" + std::to_string(p),
                                        options.window_fifo_capacity);
        build_memory_structure(ctx, lname + ".mem" + std::to_string(p), geom,
                               pool->use_filter_chain, *streams[static_cast<std::size_t>(p)],
                               wf);
        auto& of =
            ctx.add_fifo<Flit>(lname + ".out" + std::to_string(p), options.stream_fifo_capacity);
        dfc::hls::PoolCoreConfig cfg;
        cfg.mode = pool->mode;
        cfg.kh = pool->kh;
        cfg.kw = pool->kw;
        cfg.latency = spec.latency;
        cores.pool_cores.push_back(
            &ctx.add_process<dfc::hls::PoolCore>(lname + ".pool" + std::to_string(p), cfg, wf, of));
        outs.push_back(&of);
      }
      streams = std::move(outs);
      shape = pool->out_shape();
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      // FCN cores are single-input-port/single-output-port (Sec. IV-B).
      streams = adapt_stream_ports(ctx, lname, std::move(streams), shape.c, 1,
                                   options.stream_fifo_capacity);

      auto& of = ctx.add_fifo<Flit>(lname + ".out", options.stream_fifo_capacity);
      dfc::hls::FcnCoreConfig cfg;
      cfg.in_count = fcn.in_count;
      cfg.out_count = fcn.out_count;
      cfg.weights = fcn.weights;
      cfg.biases = fcn.biases;
      cfg.activation = fcn.act;
      cfg.num_accumulators = fcn.num_accumulators;
      cfg.latency = spec.latency;
      cores.fcn_cores.push_back(
          &ctx.add_process<dfc::hls::FcnCore>(lname + ".fcn", std::move(cfg), *streams[0], of));
      streams = {&of};
      shape = Shape3{fcn.out_count, 1, 1};
    }
  }

  return SegmentStreams{std::move(streams), shape};
}

Accelerator build_accelerator(const NetworkSpec& spec, const BuildOptions& options) {
  spec.validate();
  if (!options.layer_device.empty()) {
    verify::throw_if_any(check_partition(spec, options.layer_device, /*require_monotone=*/false));
  }

  Accelerator acc;
  acc.spec = spec;
  acc.options = options;
  acc.ctx = std::make_unique<SimContext>();
  SimContext& ctx = *acc.ctx;

  if (options.dma_shared_bus) {
    acc.bus = std::make_unique<DmaBus>(options.dma_cycles_per_word);
  }

  // DMA input: one 32-bit stream carrying the image channels interleaved.
  auto& dma_in = ctx.add_fifo<Flit>("dma.in", options.stream_fifo_capacity);
  acc.source = &ctx.add_process<DmaSource>("dma.source", dma_in, spec.input_shape,
                                           options.dma_cycles_per_word, acc.bus.get());
  if (acc.bus) acc.bus->attach_source(acc.source);

  SegmentStreams cur{{&dma_in}, spec.input_shape};
  SegmentCores cores;

  // Walk the layers one same-device run at a time, routing every stream port
  // through an inter-FPGA link at each device boundary.
  std::size_t li = 0;
  while (li < spec.layers.size()) {
    std::size_t seg_end = spec.layers.size();
    if (!options.layer_device.empty()) {
      seg_end = li + 1;
      while (seg_end < spec.layers.size() &&
             options.layer_device[seg_end] == options.layer_device[li]) {
        ++seg_end;
      }
    }

    if (li > 0) {
      const std::string lname = "L" + std::to_string(li);
      std::vector<Fifo<Flit>*> linked;
      linked.reserve(cur.streams.size());
      for (std::size_t p = 0; p < cur.streams.size(); ++p) {
        auto& f = ctx.add_fifo<Flit>(lname + ".xfpga" + std::to_string(p),
                                     options.stream_fifo_capacity);
        acc.links.push_back(&ctx.add_process<LinkChannel>(
            lname + ".link" + std::to_string(p), options.link, *cur.streams[p], f));
        linked.push_back(&f);
      }
      cur.streams = std::move(linked);
    }

    cur = append_layer_segment(ctx, spec, li, seg_end, std::move(cur), options, "", cores);
    li = seg_end;
  }

  acc.conv_cores = std::move(cores.conv_cores);
  acc.fcn_cores = std::move(cores.fcn_cores);
  acc.pool_cores = std::move(cores.pool_cores);

  // The DMA S2MM channel is a single 32-bit stream; merge multi-port outputs.
  cur.streams = adapt_stream_ports(ctx, "dma", std::move(cur.streams), cur.shape.c, 1,
                                   options.stream_fifo_capacity);
  acc.sink = &ctx.add_process<DmaSink>("dma.sink", *cur.streams[0], cur.shape.volume(),
                                       options.dma_cycles_per_word, acc.bus.get());
  if (acc.bus) acc.bus->attach_sink(acc.sink);
  return acc;
}

}  // namespace dfc::core
