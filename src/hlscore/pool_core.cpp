#include "hlscore/pool_core.hpp"

#include <algorithm>

namespace dfc::hls {

using dfc::axis::Flit;
using dfc::sst::Window;

PoolCore::PoolCore(std::string name, PoolCoreConfig config, dfc::df::Fifo<Window>& window_in,
                   dfc::df::Fifo<Flit>& stream_out)
    : Process(std::move(name)), cfg_(std::move(config)), in_(window_in), out_(stream_out) {
  cfg_.validate();
}

float PoolCore::pool(const Window& w) const {
  if (cfg_.mode == PoolMode::kMax) {
    float value = w.taps[0];
    for (std::size_t i = 1; i < w.count; ++i) value = std::max(value, w.taps[i]);
    return value;
  }
  float sum = 0.0f;
  for (std::size_t i = 0; i < w.count; ++i) sum += w.taps[i];
  return sum / static_cast<float>(w.count);
}

void PoolCore::on_clock() {
  if (!in_.can_pop()) {
    if (obs_enabled_) activity_.tick(obs::CoreState::kIdle, now(), obs_trace_, obs_id_);
    return;
  }
  if (!out_.can_push()) {
    out_.note_full_stall();
    if (obs_enabled_) activity_.tick(obs::CoreState::kBackPressured, now(), obs_trace_, obs_id_);
    return;
  }
  const Window& w = in_.pop();
  DFC_ASSERT(w.count == cfg_.taps(), "pool window tap count mismatch in " + name());

  Flit f;
  if (carry_values_) f.data = pool(w);
  f.channel = w.abs_channel;
  f.last = w.last_of_image;
  out_.push(f);
  ++outputs_produced_;
  if (obs_enabled_) activity_.tick(obs::CoreState::kWorking, now(), obs_trace_, obs_id_);
}

}  // namespace dfc::hls
