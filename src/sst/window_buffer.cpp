#include "sst/window_buffer.hpp"

#include <algorithm>

namespace dfc::sst {

using dfc::axis::Flit;

WindowBuffer::WindowBuffer(std::string name, const WindowGeometry& geom,
                           dfc::df::Fifo<Flit>& in, dfc::df::Fifo<Window>& out)
    : Process(std::move(name)),
      geom_(geom),
      in_(in),
      out_(out),
      rows_(static_cast<std::size_t>(geom.channels * geom.kh * geom.in_w), 0.0f),
      abs_channel_(static_cast<std::size_t>(geom.channels), 0) {
  geom_.validate();
  emit_oy_ = geom_.origin_min();
  emit_ox_ = geom_.origin_min();
}

void WindowBuffer::on_clock() {
  try_emit();
  try_consume();
}

bool WindowBuffer::emit_data_ready() const {
  // The cursor window needs its last real (in-map) tap to have arrived:
  // pixel (ry, rx) of the cursor's channel slot.
  const std::int64_t ry = std::min(emit_oy_ + geom_.kh - 1, geom_.in_h - 1);
  const std::int64_t rx = std::min(emit_ox_ + geom_.kw - 1, geom_.in_w - 1);
  const std::int64_t required = (ry * geom_.in_w + rx) * geom_.channels + emit_slot_;
  return emit_image_ < input_image_ ||
         (emit_image_ == input_image_ && elements_in_image_ > required);
}

std::uint64_t WindowBuffer::wake_cycle() const {
  // An emittable window either pushes or stalls on the full output every
  // cycle; available input may be consumed. Otherwise on_clock is a no-op.
  return (emit_data_ready() || in_.can_pop()) ? now() : kNeverWake;
}

void WindowBuffer::try_emit() {
  if (!emit_data_ready()) return;
  if (!out_.can_push()) {
    out_.note_full_stall();
    return;
  }
  out_.push_with([this](Window& w) { build_window(w); });
  advance_emit_cursor();
}

void WindowBuffer::build_window(Window& w) const {
  // `w` is a recycled ring slot. Every window of this port has the same tap
  // count, and taps past it stay zero; a slot last used by a wider window
  // has its extra taps cleared, so the token reads as if freshly built.
  const auto count = static_cast<std::uint16_t>(geom_.taps());
  if (w.count > count) std::fill(w.taps.begin() + count, w.taps.begin() + w.count, 0.0f);
  w.count = count;
  w.slot = static_cast<std::uint16_t>(emit_slot_);
  w.abs_channel = abs_channel_[static_cast<std::size_t>(emit_slot_)];
  w.oy = static_cast<std::int32_t>(emit_oy_);
  w.ox = static_cast<std::int32_t>(emit_ox_);
  w.last_of_image = (emit_oy_ == geom_.last_origin_y()) && (emit_ox_ == geom_.last_origin_x()) &&
                    (emit_slot_ == geom_.channels - 1);
  if (!carry_values_) return;  // a timing-only run never reads the taps
  const int kw = geom_.kw;
  const bool cols_in_map = emit_ox_ >= 0 && emit_ox_ + kw <= geom_.in_w;
  float* out = w.taps.data();
  for (int dy = 0; dy < geom_.kh; ++dy, out += kw) {
    const std::int64_t y = emit_oy_ + dy;
    if (y < 0 || y >= geom_.in_h) {
      std::fill_n(out, kw, 0.0f);
      continue;
    }
    const std::int64_t row_slot = emit_slot_ * geom_.kh + (y % geom_.kh);
    const float* row = &rows_[static_cast<std::size_t>(row_slot * geom_.in_w)];
    if (cols_in_map) {
      std::copy_n(row + emit_ox_, kw, out);
      continue;
    }
    // Left or right padded edge: taps outside the map read as zero.
    for (int dx = 0; dx < kw; ++dx) {
      const std::int64_t x = emit_ox_ + dx;
      out[dx] = (x < 0 || x >= geom_.in_w) ? 0.0f : row[x];
    }
  }
}

void WindowBuffer::advance_emit_cursor() {
  if (++emit_slot_ < geom_.channels) return;
  emit_slot_ = 0;
  emit_ox_ += geom_.stride_x;
  if (emit_ox_ <= geom_.last_origin_x()) return;
  emit_ox_ = geom_.origin_min();
  emit_oy_ += geom_.stride_y;
  if (emit_oy_ <= geom_.last_origin_y()) return;
  emit_oy_ = geom_.origin_min();
  ++emit_image_;
}

void WindowBuffer::try_consume() {
  if (!in_.can_pop()) return;

  // Image boundary: the next element belongs to a new image; wait until the
  // emitter has drained every window of the current one (its bottom-padded
  // windows still read the last rows of the ring).
  if (elements_in_image_ == geom_.values_per_image()) {
    if (emit_image_ <= input_image_) return;
    ++input_image_;
    elements_in_image_ = 0;
    cur_y_ = cur_x_ = cur_slot_ = 0;
  }

  // Overwrite guard: storing row cur_y_ reuses the ring slot of row
  // cur_y_ - kh, which must no longer be needed by any unemitted window.
  if (cur_y_ >= geom_.kh && cur_slot_ == 0 && cur_x_ == 0 &&
      emit_image_ == input_image_ &&
      std::max<std::int64_t>(emit_oy_, 0) <= cur_y_ - geom_.kh) {
    return;
  }

  const Flit& flit = in_.pop();
  if (carry_values_) {
    const std::int64_t row_slot = cur_slot_ * geom_.kh + (cur_y_ % geom_.kh);
    rows_[static_cast<std::size_t>(row_slot * geom_.in_w + cur_x_)] = flit.data;
  }
  abs_channel_[static_cast<std::size_t>(cur_slot_)] = flit.channel;
  ++elements_in_image_;

  if (++cur_slot_ < geom_.channels) return;
  cur_slot_ = 0;
  if (++cur_x_ < geom_.in_w) return;
  cur_x_ = 0;
  if (++cur_y_ < geom_.in_h) return;
  cur_y_ = geom_.in_h;  // image complete; reset happens at the boundary above
  ++images_consumed_;
}

void WindowBuffer::reset() {
  cur_y_ = cur_x_ = cur_slot_ = 0;
  elements_in_image_ = 0;
  input_image_ = 0;
  images_consumed_ = 0;
  emit_oy_ = geom_.origin_min();
  emit_ox_ = geom_.origin_min();
  emit_slot_ = 0;
  emit_image_ = 0;
  std::fill(rows_.begin(), rows_.end(), 0.0f);
}

}  // namespace dfc::sst
