#include "hlscore/conv_core.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "hlscore/tree_reduce.hpp"

namespace dfc::hls {

using dfc::axis::Flit;
using dfc::sst::Window;

void ConvCoreConfig::validate() const {
  latency.validate();
  DFC_REQUIRE(in_ports >= 1 && out_ports >= 1, "port counts must be >= 1");
  DFC_REQUIRE(in_fm >= 1 && out_fm >= 1, "feature-map counts must be >= 1");
  DFC_REQUIRE(in_fm % in_ports == 0,
              "IN_FM must be a multiple of IN_PORTS (got " + std::to_string(in_fm) + "/" +
                  std::to_string(in_ports) + ")");
  DFC_REQUIRE(out_fm % out_ports == 0,
              "OUT_FM must be a multiple of OUT_PORTS (got " + std::to_string(out_fm) + "/" +
                  std::to_string(out_ports) + ")");
  DFC_REQUIRE(kh >= 1 && kw >= 1 && kh * kw <= sst::WindowGeometry::kMaxTaps,
              "window size unsupported");
  DFC_REQUIRE(out_positions >= 1, "out_positions must be set");
  DFC_REQUIRE(static_cast<std::int64_t>(weights.size()) == out_fm * in_fm * taps(),
              "weights size mismatch");
  DFC_REQUIRE(static_cast<std::int64_t>(biases.size()) == out_fm, "biases size mismatch");
}

std::int64_t ConvCoreConfig::pipeline_latency() const {
  const auto products = static_cast<std::size_t>(in_ports) * static_cast<std::size_t>(taps());
  return latency.fmul + static_cast<std::int64_t>(tree_depth(products)) * latency.fadd +
         latency.fadd;  // final accumulate into the partial-sum register
}

ConvCore::ConvCore(std::string name, ConvCoreConfig config,
                   std::vector<dfc::df::Fifo<Window>*> window_in,
                   std::vector<dfc::df::Fifo<Flit>*> stream_out)
    : Process(std::move(name)),
      cfg_(std::move(config)),
      win_in_(std::move(window_in)),
      out_(std::move(stream_out)) {
  cfg_.validate();
  // Enough pipeline slots to hide the operator latency at the steady-state
  // initiation interval (the depth of the synthesized pipeline).
  in_flight_limit_ = static_cast<std::size_t>(
      dfc::ceil_div(cfg_.pipeline_latency(), cfg_.initiation_interval()) + 2);
  DFC_REQUIRE(static_cast<int>(win_in_.size()) == cfg_.in_ports,
              "ConvCore needs one window channel per input port");
  DFC_REQUIRE(static_cast<int>(out_.size()) == cfg_.out_ports,
              "ConvCore needs one stream per output port");

  const auto taps = static_cast<std::size_t>(cfg_.taps());
  const auto out_fm = static_cast<std::size_t>(cfg_.out_fm);
  products_ = static_cast<std::size_t>(cfg_.in_ports) * taps;
  blocks_ = (out_fm + kConvLanes - 1) / kConvLanes;
  const auto beats = static_cast<std::size_t>(cfg_.gather_beats());
  weight_bank_.assign(beats * products_ * blocks_, ConvLanes{});
  for (std::size_t g = 0; g < beats; ++g) {
    for (std::size_t n = 0; n < products_; ++n) {
      // Product n of beat g multiplies tap n % taps of input channel
      // g*IN_PORTS + n / taps (port p carries channel g*IN_PORTS + p).
      const auto c = static_cast<std::int64_t>(g * static_cast<std::size_t>(cfg_.in_ports) +
                                               n / taps);
      const auto t = static_cast<std::int64_t>(n % taps);
      ConvLanes* lanes = &weight_bank_[(g * products_ + n) * blocks_];
      for (std::size_t k = 0; k < out_fm; ++k) {
        lanes[k / kConvLanes][k % kConvLanes] = cfg_.weight(static_cast<std::int64_t>(k), c, t);
      }
    }
  }
  bias_bank_.assign(blocks_, ConvLanes{});
  for (std::size_t k = 0; k < out_fm; ++k) {
    bias_bank_[k / kConvLanes][k % kConvLanes] = cfg_.biases[k];
  }
  // The banks replace the config's weight and bias vectors.
  cfg_.weights.clear();
  cfg_.weights.shrink_to_fit();
  cfg_.biases.clear();
  cfg_.biases.shrink_to_fit();
  row_.assign(products_, 0.0f);
  levels_.assign((products_ + 1) / 2 * blocks_, ConvLanes{});
  slots_.assign(in_flight_limit_ + 1, InFlight{});
  banks_.assign(slots_.size() * blocks_, ConvLanes{});
}

void ConvCore::on_clock() {
  // Emission and gather share the cycle; the pipeline queue decouples them so
  // the position interval is max(gather_beats, emit_beats) at steady state.
  worked_this_cycle_ = false;
  blocked_output_ = false;
  blocked_retire_ = false;
  try_emit();
  try_gather();
  if (worked_this_cycle_) ++work_cycles_;
  if (obs_enabled_) {
    // Exactly one bucket per observed cycle, working > back-pressured >
    // starved > idle. "In progress" means a position is mid-gather, data is
    // in the pipeline, or an emission is half done — empty inputs then count
    // as starvation; with nothing in progress they are plain idle.
    obs::CoreState s;
    const bool in_progress = group_ != 0 || in_flight_ != 0 || emit_beat_ != 0;
    if (worked_this_cycle_) {
      s = obs::CoreState::kWorking;
    } else if (blocked_output_ || blocked_retire_) {
      s = obs::CoreState::kBackPressured;
    } else if (in_progress) {
      s = obs::CoreState::kStarved;
    } else {
      s = obs::CoreState::kIdle;
    }
    activity_.tick(s, now(), obs_trace_, obs_id_);
  }
}

void ConvCore::try_emit() {
  if (in_flight_ == 0 || now() < slots_[head_].ready_cycle) return;
  // One beat pushes OUT_PORTS values in lockstep; all ports must be ready.
  for (auto* port : out_) {
    if (!port->can_push()) {
      port->note_full_stall();
      blocked_output_ = true;
      return;
    }
  }
  const ConvLanes* values = bank(head_);
  const bool carry = carry_values_;
  const bool last_beat = (emit_beat_ == cfg_.emit_beats() - 1);
  for (int p = 0; p < cfg_.out_ports; ++p) {
    const std::int64_t k = emit_beat_ * cfg_.out_ports + p;
    const auto ku = static_cast<std::size_t>(k);
    Flit f;
    if (carry) {
      f.data = apply_activation(cfg_.activation, values[ku / kConvLanes][ku % kConvLanes]);
    }
    f.channel = static_cast<std::int32_t>(cfg_.out_channel_base + k);
    f.last = last_beat && slots_[head_].last_of_image;
    out_[static_cast<std::size_t>(p)]->push(f);
  }
  if (last_beat) {
    head_ = (head_ + 1) % slots_.size();
    --in_flight_;
    emit_beat_ = 0;
  } else {
    ++emit_beat_;
  }
  worked_this_cycle_ = true;
}

void ConvCore::try_gather() {
  // The final beat of a position needs a free pipeline slot to retire into.
  const bool completing = (group_ == cfg_.gather_beats() - 1);
  if (completing && in_flight_ >= in_flight_limit_) {
    ++gather_stalls_;
    blocked_retire_ = true;
    return;
  }
  for (auto* port : win_in_) {
    if (!port->can_pop()) {
      if (obs_enabled_) {
        for (auto* q : win_in_) {
          if (!q->can_pop()) q->note_empty_stall();
        }
      }
      return;
    }
  }

  // Pop one window per input port and read it in place into the beat's
  // input row; port p at beat g carries input channel g*IN_PORTS + p under
  // the round-robin interleave. A timing-only run reads just the metadata.
  const std::size_t taps = static_cast<std::size_t>(cfg_.taps());
  const bool carry = carry_values_;
  bool last_of_image = false;
  for (int p = 0; p < cfg_.in_ports; ++p) {
    const Window& w = win_in_[static_cast<std::size_t>(p)]->pop();
    DFC_ASSERT(w.count == cfg_.taps(), "window tap count mismatch in " + name());
    DFC_ASSERT(w.slot == group_, "window slot out of order in " + name());
    if (carry) {
      std::copy_n(w.taps.data(), taps, row_.data() + static_cast<std::size_t>(p) * taps);
    }
    last_of_image |= w.last_of_image;
  }
  worked_this_cycle_ = true;
  if (carry) accumulate_beat();

  if (!completing) {
    ++group_;
    return;
  }
  group_ = 0;
  slots_[gather_slot()] =
      InFlight{last_of_image, now() + static_cast<std::uint64_t>(cfg_.pipeline_latency())};
  ++in_flight_;
  ++positions_completed_;
  if (++position_in_image_ == cfg_.out_positions) {
    DFC_ASSERT(last_of_image, "image boundary mismatch in " + name());
    position_in_image_ = 0;
  }
}

// Inlined into try_gather, its only caller, so the value path keeps the
// code layout of one function.
[[gnu::always_inline]] inline void ConvCore::accumulate_beat() {
  // Multiplier bank and tree adder for all OUT_FM lanes at once (Algorithm
  // 1): level 1 adds products (2i, 2i+1), an odd last product carries up,
  // and each further level pairs the previous one the same way — exactly
  // tree_reduce_inplace's association, lane by lane.
  const std::size_t blocks = blocks_;
  const float* x = row_.data();
  const ConvLanes* w = &weight_bank_[static_cast<std::size_t>(group_) * products_ * blocks];
  ConvLanes* s = levels_.data();
  std::size_t n = products_;
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const ConvLanes* w0 = w + 2 * i * blocks;
    const ConvLanes* w1 = w0 + blocks;
    const float x0 = x[2 * i];
    const float x1 = x[2 * i + 1];
    for (std::size_t b = 0; b < blocks; ++b) s[i * blocks + b] = w0[b] * x0 + w1[b] * x1;
  }
  if (n % 2 == 1) {
    const ConvLanes* wl = w + (n - 1) * blocks;
    for (std::size_t b = 0; b < blocks; ++b) s[half * blocks + b] = wl[b] * x[n - 1];
    n = half + 1;
  } else {
    n = half;
  }
  while (n > 1) {
    const std::size_t h = n / 2;
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t b = 0; b < blocks; ++b) {
        s[i * blocks + b] = s[2 * i * blocks + b] + s[(2 * i + 1) * blocks + b];
      }
    }
    if (n % 2 == 1) {
      for (std::size_t b = 0; b < blocks; ++b) s[h * blocks + b] = s[(n - 1) * blocks + b];
      n = h + 1;
    } else {
      n = h;
    }
  }
  // Accumulate into the partial-sum register, seeded with the bias.
  ConvLanes* acc = bank(gather_slot());
  const ConvLanes* seed = group_ == 0 ? bias_bank_.data() : acc;
  for (std::size_t b = 0; b < blocks; ++b) acc[b] = seed[b] + s[b];
}

std::uint64_t ConvCore::wake_cycle() const {
  std::uint64_t wake = kNeverWake;
  // Emit side: the head position becomes emittable at its ready_cycle; once
  // ready, a blocked output port notes a stall every cycle (stay awake).
  if (in_flight_ != 0) wake = std::max(slots_[head_].ready_cycle, now());
  // Gather side: a completing beat with no free pipeline slot counts a
  // gather stall every cycle regardless of window availability — that state
  // must stay awake. Otherwise the core only acts when every window port has
  // data.
  const bool completing = (group_ == cfg_.gather_beats() - 1);
  if (completing && in_flight_ >= in_flight_limit_) return now();
  bool windows_ready = true;
  for (const auto* port : win_in_) {
    if (!port->can_pop()) {
      windows_ready = false;
      break;
    }
  }
  if (windows_ready) return now();
  return wake;
}

dfc::df::Ports ConvCore::ports() const {
  return {{win_in_.begin(), win_in_.end()}, {out_.begin(), out_.end()}};
}

void ConvCore::reset() {
  group_ = 0;
  position_in_image_ = 0;
  head_ = 0;
  in_flight_ = 0;
  emit_beat_ = 0;
  positions_completed_ = 0;
  gather_stalls_ = 0;
  work_cycles_ = 0;
  worked_this_cycle_ = false;
  activity_.reset();
  blocked_output_ = false;
  blocked_retire_ = false;
}

}  // namespace dfc::hls
