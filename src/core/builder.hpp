// Assembles a NetworkSpec into a simulated accelerator: SST memory
// structures, compute cores, port adapters and the DMA endpoints, all wired
// with FIFO channels inside one SimContext.
#pragma once

#include <memory>
#include <vector>

#include "core/dma.hpp"
#include "core/link.hpp"
#include "core/network_spec.hpp"
#include "dataflow/sim_context.hpp"
#include "hlscore/conv_core.hpp"
#include "hlscore/fcn_core.hpp"
#include "hlscore/pool_core.hpp"

namespace dfc::core {

/// How the harness executes a batch (DESIGN.md §10).
///
///  * kCycleAccurate: the two-phase process-stepping engine — the ground
///    truth, required whenever something watches or perturbs the simulation.
///  * kCompiledSchedule: lower the design's static schedule once (fill-phase
///    prefix + repeating steady interval, measured on the cycle engine) and
///    replay batches against it: completion cycles come from the schedule,
///    logits from the bit-exact functional model. Falls back to
///    kCycleAccurate automatically when a fault hook, trace sink, stall
///    accounting, integrity guards, the stream guard or paranoid mode is
///    active — those need real per-cycle state.
enum class ExecutionMode { kCycleAccurate, kCompiledSchedule };

struct BuildOptions {
  std::size_t stream_fifo_capacity = 8;  ///< inter-module value channels
  std::size_t window_fifo_capacity = 4;  ///< memory structure -> compute core
  int dma_cycles_per_word = 1;           ///< 1 = 32-bit @ 100 MHz = 400 MB/s

  /// Arbitrate MM2S and S2MM over one shared 400 MB/s datapath with sink
  /// priority (DESIGN.md §5, the paper's single AXI DMA). `false` gives each
  /// direction a private channel — 2x the paper's bandwidth — for ablations.
  bool dma_shared_bus = true;

  /// Multi-FPGA mapping: device index per layer (empty = all on device 0).
  /// Wherever consecutive layers sit on different devices, every stream port
  /// crossing the boundary goes through a LinkChannel. The DMA endpoints live
  /// with the first/last layer's device.
  std::vector<std::size_t> layer_device;
  LinkModel link{};

  /// Execution engine the harness selects for run_batch/run_sequential.
  /// The built design is identical either way; this only chooses how batches
  /// are executed (see ExecutionMode).
  ExecutionMode execution_mode = ExecutionMode::kCycleAccurate;
};

/// A built accelerator. The SimContext owns all processes and FIFOs; the raw
/// pointers here are stable views for measurement and tests.
struct Accelerator {
  std::unique_ptr<dfc::df::SimContext> ctx;
  NetworkSpec spec;
  BuildOptions options;  ///< the options this design was built with

  std::unique_ptr<DmaBus> bus;  ///< shared DMA arbiter (null in private mode)
  DmaSource* source = nullptr;
  DmaSink* sink = nullptr;

  std::vector<dfc::hls::ConvCore*> conv_cores;
  std::vector<dfc::hls::FcnCore*> fcn_cores;
  std::vector<dfc::hls::PoolCore*> pool_cores;
  std::vector<LinkChannel*> links;  ///< inter-FPGA channels, if any
};

/// Builds the full design. Throws verify::VerifyError (a ConfigError)
/// carrying every spec finding, or the DF403 finding for a layer_device that
/// does not cover every layer.
Accelerator build_accelerator(const NetworkSpec& spec, const BuildOptions& options = {});

// --- Segment-level building blocks (shared with src/multifpga/exec) ----------
//
// build_accelerator is a composition of these: the layer pipeline is built
// one contiguous layer range ("segment") at a time, and the multi-FPGA
// executor reuses the same functions to materialise each segment inside its
// own per-device SimContext. `prefix` namespaces every FIFO/process name
// (the single-device builder passes "", keeping historical names).

/// Compute-core views collected while appending segments.
struct SegmentCores {
  std::vector<dfc::hls::ConvCore*> conv_cores;
  std::vector<dfc::hls::FcnCore*> fcn_cores;
  std::vector<dfc::hls::PoolCore*> pool_cores;
};

/// The stream bundle flowing between segments: one FIFO per port plus the
/// feature-map shape those ports carry (channels interleaved round-robin).
struct SegmentStreams {
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> streams;
  Shape3 shape{};
};

/// Adapts `streams` (carrying `channels` interleaved FMs round-robin) to
/// `target` ports, inserting PortDemux/PortMerge cores as required
/// (the three cases of Sec. IV-A).
std::vector<dfc::df::Fifo<dfc::axis::Flit>*> adapt_stream_ports(
    dfc::df::SimContext& ctx, const std::string& name,
    std::vector<dfc::df::Fifo<dfc::axis::Flit>*> streams, std::int64_t channels,
    int target, std::size_t fifo_capacity);

/// Appends layers [first, last) of `spec` to `ctx`, consuming the incoming
/// stream bundle and returning the segment's outgoing one. Core views are
/// appended to `cores` in layer order.
SegmentStreams append_layer_segment(dfc::df::SimContext& ctx, const NetworkSpec& spec,
                                    std::size_t first, std::size_t last, SegmentStreams in,
                                    const BuildOptions& options, const std::string& prefix,
                                    SegmentCores& cores);

}  // namespace dfc::core
