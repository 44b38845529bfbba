// Measured service-time tables for single- and multi-board replicas.
//
// The serve and cluster planners consume a table mapping batch size ->
// cycles (entry n-1 = cycles of a size-n back-to-back batch), measured on the
// cycle engine. A replica that is a multi-board pipeline (src/multifpga) is
// partitioned with partition_network_exact (contiguous split, best predicted
// interval) and measured on a lockstep MultiFpgaHarness, so the interlink's
// bandwidth, latency and credit window land in the planner's per-image
// service times exactly as the wire-level executor charges them.
//
// Every board count takes one path: build one harness, run one timing-only
// batch of max_batch images (run_timing: the engine skips the value work, no
// images are made, DESIGN.md §17), and read entry n-1 as image n-1's
// completion cycle. The pipeline is prefix-stable — no image is delayed by a
// later one (DESIGN.md §14) — so one run of max_batch images replaces the
// max_batch(max_batch+1)/2 images of per-size runs and gives the same table.
// One case is not exact: a single board whose shared DMA bus is throttled to
// dma_cycles_per_word >= 3, where a later image's input word can hold the
// bus when the sink wants it (entries below max_batch read 2 cycles high on
// TC1 and TC2). The timing-only run is exact there too; the error is in
// reading a prefix of it. The measurement is bit-deterministic (lockstep
// multi-context execution, DESIGN.md §11), so planner timelines built on
// these tables stay byte-identical across hosts and DFCNN_SWEEP_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "core/builder.hpp"
#include "core/interlink.hpp"
#include "core/network_spec.hpp"

namespace dfc::cluster {

/// Measures cycles for back-to-back batches of size 1..max_batch on a
/// replica of `spec` spanning `boards` devices (1 = one AcceleratorHarness;
/// >1 = contiguous partition over `boards` boards joined by `link`-timed
/// credit-based interlinks), from one run of max_batch images. Throws
/// ConfigError when boards exceeds the layer count and InternalError, naming
/// the design and board count, if the run does not complete.
std::vector<std::uint64_t> measure_service_table(
    const dfc::core::NetworkSpec& spec, std::size_t boards, std::size_t max_batch,
    const dfc::core::InterLinkModel& link = {},
    const dfc::core::BuildOptions& options = {});

}  // namespace dfc::cluster
