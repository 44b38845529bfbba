// Fused sliding-window line buffer (behavioural model of the SST filter
// chain).
//
// WindowBuffer consumes at most one stream element per cycle and emits at
// most one Window per cycle, with full buffering: it stores only the last KH
// rows of each interleaved channel (the same (KH-1)*W + KW elements the
// paper's filter+FIFO chain holds). It is functionally and rate-equivalent
// to the element-level FilterChain (tests/sst assert this) but costs O(1)
// simulation work per element instead of O(taps).
//
// Zero-padding is supported by an emission cursor that walks the padded
// origin grid in raster order and waits for the last *real* tap of each
// window to arrive; taps outside the feature map read as zero. (The
// element-level FilterChain supports only P = 0.) A guard stalls the input
// whenever storing the next element would overwrite a row the cursor still
// needs — which also realizes inter-image backpressure when downstream
// pressure delays emission.
#pragma once

#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "sst/window.hpp"

namespace dfc::sst {

class WindowBuffer final : public dfc::df::Process {
 public:
  WindowBuffer(std::string name, const WindowGeometry& geom,
               dfc::df::Fifo<dfc::axis::Flit>& in, dfc::df::Fifo<Window>& out);

  void on_clock() override;
  void reset() override;
  bool done() const override {
    return emit_image_ > input_image_ ||
           (emit_image_ == input_image_ && elements_in_image_ == 0);
  }
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override { return {{&in_}, {&out_}}; }

  const WindowGeometry& geometry() const { return geom_; }

  /// Images fully consumed from the input stream so far.
  std::uint64_t images_consumed() const { return images_consumed_; }

 private:
  bool emit_data_ready() const;
  void try_emit();
  /// Writes the cursor window into `w`, the output FIFO's tail slot.
  void build_window(Window& w) const;
  void try_consume();
  void advance_emit_cursor();

  WindowGeometry geom_;
  dfc::df::Fifo<dfc::axis::Flit>& in_;
  dfc::df::Fifo<Window>& out_;

  // Row ring: rows_[ (slot*kh + (y % kh)) * in_w + x ].
  std::vector<float> rows_;
  // Absolute channel metadata captured per slot from the incoming flits.
  std::vector<std::int32_t> abs_channel_;

  // Write cursor within the current input image (channel-innermost order).
  std::int64_t cur_y_ = 0;
  std::int64_t cur_x_ = 0;
  std::int64_t cur_slot_ = 0;
  std::int64_t elements_in_image_ = 0;
  std::uint64_t input_image_ = 0;
  std::uint64_t images_consumed_ = 0;

  // Emission cursor over the padded origin grid (raster order, slot inner).
  std::int64_t emit_oy_ = 0;
  std::int64_t emit_ox_ = 0;
  std::int64_t emit_slot_ = 0;
  std::uint64_t emit_image_ = 0;
};

}  // namespace dfc::sst
