// Element-level SST filter chain.
//
// This is a structural model of the memory system described in the paper
// (Sec. II-B / IV-A): one chain of `filters` per input port, connected by
// FIFO channels, where each filter corresponds to one distinct window tap.
// Every stream element is read exactly once from the previous stage, always
// forwarded to the next filter in the chain, and — when the element is that
// filter's tap for a valid output position — also sent towards the compute
// core through the filter's tap channel. A WindowAssembler performs blocking
// reads on all tap channels and emits complete Window tokens.
//
// Filters are ordered by descending tap offset (the filter nearest the input
// sees the newest element of a window, i.e. the bottom-right tap); the FIFO
// between consecutive filters is sized to the element distance between their
// taps plus one slot of slack, which realizes exactly the paper's "full
// buffering": the chain holds (KH-1)*W + KW elements per channel group.
//
// The fused WindowBuffer is the fast behavioural equivalent; this structure
// exists to validate it and to ground the BRAM/FF resource model.
#pragma once

#include <memory>
#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "dataflow/sim_context.hpp"
#include "sst/window.hpp"

namespace dfc::sst {

/// One tap filter in the chain.
class TapFilter final : public dfc::df::Process {
 public:
  TapFilter(std::string name, const WindowGeometry& geom, int dy, int dx,
            dfc::df::Fifo<dfc::axis::Flit>& upstream,
            dfc::df::Fifo<dfc::axis::Flit>* downstream,
            dfc::df::Fifo<dfc::axis::Flit>& tap_out);

  void on_clock() override;
  void reset() override;
  // With input available the filter either forwards or notes a stall on the
  // blocked destination every cycle; without input it is fully idle.
  std::uint64_t wake_cycle() const override { return upstream_.can_pop() ? now() : kNeverWake; }
  dfc::df::Ports ports() const override {
    dfc::df::Ports p{{&upstream_}, {&tap_out_}};
    if (downstream_ != nullptr) p.outputs.push_back(downstream_);
    return p;
  }

 private:
  WindowGeometry geom_;
  int dy_;
  int dx_;
  dfc::df::Fifo<dfc::axis::Flit>& upstream_;
  dfc::df::Fifo<dfc::axis::Flit>* downstream_;
  dfc::df::Fifo<dfc::axis::Flit>& tap_out_;
  std::int64_t elem_ = 0;  ///< element index within the current image
};

/// Joins the tap channels of a chain into Window tokens (the "register
/// slices read by the computation core" of the paper, with blocking-read
/// semantics).
class WindowAssembler final : public dfc::df::Process {
 public:
  WindowAssembler(std::string name, const WindowGeometry& geom,
                  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> taps_row_major,
                  dfc::df::Fifo<Window>& out);

  void on_clock() override;
  void reset() override;
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override;

 private:
  void advance_position();

  WindowGeometry geom_;
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> taps_;
  dfc::df::Fifo<Window>& out_;
  std::int64_t cur_oy_ = 0;
  std::int64_t cur_ox_ = 0;
  std::int64_t cur_slot_ = 0;
};

/// Handle to an instantiated chain (for inspection in tests and the resource
/// model).
struct FilterChainHandle {
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> chain_fifos;  ///< inter-filter FIFOs
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> tap_fifos;    ///< filter -> assembler
  std::size_t total_chain_capacity = 0;                      ///< full-buffering footprint
};

/// Instantiates the complete filter chain for `geom` into `ctx`, reading the
/// port stream from `in` and emitting windows into `out`.
FilterChainHandle build_filter_chain(dfc::df::SimContext& ctx, const std::string& name,
                                     const WindowGeometry& geom,
                                     dfc::df::Fifo<dfc::axis::Flit>& in,
                                     dfc::df::Fifo<Window>& out);

}  // namespace dfc::sst
