// AXI DMA model (paper Sec. V-A).
//
// The paper's test harness is a MicroBlaze + AXI DMA + AXI Timer base
// design; the datapath towards the CNN is 32 bits wide with 400 MB/s
// available bandwidth, which at the 100 MHz fabric clock is exactly one
// 32-bit word per cycle. DESIGN.md §5 models this as a *shared* bus: input
// (MM2S) and output (S2MM) transfers contend for the same 400 MB/s, with the
// sink given priority (draining results cannot be starved by an endless
// input stream, matching the paper's measured-with-transfer setup). The
// legacy private-channel mode (independent 1 word/cycle each way, 2x the
// paper's bandwidth) remains available behind BuildOptions::dma_shared_bus
// for ablations. Performance measurements include these transfers, as they
// are interleaved with computation.
//
// DmaSource streams queued images back to back (the batch mode that makes
// the high-level pipeline pay off); DmaSink collects the classifier outputs
// and records per-image injection/completion cycles for the harness.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"
#include "tensor/tensor.hpp"

namespace dfc::core {

class DmaSource;
class DmaSink;

/// Arbiter for the shared 32-bit DMA datapath. At most one word moves per
/// `cycles_per_word` cycles across both directions; when both endpoints want
/// the bus in the same cycle the sink wins.
///
/// The grant decision is memoized once per cycle at the first query and is
/// computed purely from start-of-cycle state (the endpoints' want predicates
/// read FIFO occupancy and their own pacing registers before either endpoint
/// has acted), so it is independent of process evaluation order — the same
/// invariant the two-phase FIFO protocol provides.
class DmaBus {
 public:
  explicit DmaBus(int cycles_per_word);

  void attach_source(const DmaSource* source) { source_ = source; }
  void attach_sink(const DmaSink* sink) { sink_ = sink; }

  /// True if the source/sink owns the bus in cycle `now`.
  bool grant_source(std::uint64_t now);
  bool grant_sink(std::uint64_t now);

  /// Called by the granted endpoint after an actual word transfer; a granted
  /// endpoint whose FIFO refused the transfer does not consume the slot.
  void consume(std::uint64_t now);

  /// First cycle at which the bus can move another word (wake hints).
  std::uint64_t next_free_cycle() const { return next_free_cycle_; }

  std::uint64_t words_transferred() const { return words_; }

  void reset();

 private:
  enum class Grant { kNone, kSource, kSink };
  Grant arbitrate(std::uint64_t now);

  int cycles_per_word_;
  const DmaSource* source_ = nullptr;
  const DmaSink* sink_ = nullptr;
  std::uint64_t next_free_cycle_ = 0;
  std::uint64_t decided_cycle_ = ~std::uint64_t{0};
  Grant grant_ = Grant::kNone;
  std::uint64_t words_ = 0;
};

class DmaSource final : public dfc::df::Process {
 public:
  /// `cycles_per_word` models the available stream bandwidth: 1 is the
  /// paper's setup (32-bit @ 100 MHz = 400 MB/s); larger values throttle the
  /// channel (e.g. 4 = 100 MB/s) for bandwidth-sensitivity studies. A
  /// non-null `bus` routes every word over the shared arbiter instead of a
  /// private channel.
  DmaSource(std::string name, dfc::df::Fifo<dfc::axis::Flit>& out, Shape3 image_shape,
            int cycles_per_word = 1, DmaBus* bus = nullptr);

  void on_clock() override;
  void reset() override;
  bool done() const override { return buffer_.empty(); }
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override { return {{}, {&out_}}; }

  /// Queues an image for streaming (CHW tensor, sent pixel-major with
  /// channels interleaved — the single-port stream format).
  void enqueue(const Tensor& image);

  /// True if the source has a word ready for the bus this cycle (pacing and
  /// buffered data; FIFO backpressure is resolved after the grant).
  bool wants_bus(std::uint64_t now) const {
    return !buffer_.empty() && now >= next_send_cycle_;
  }

  std::uint64_t images_started() const { return images_started_; }
  std::uint64_t images_sent() const { return images_sent_; }

  /// Cycle at which image i's first word entered the stream.
  const std::vector<std::uint64_t>& inject_cycles() const { return inject_cycles_; }

 private:
  dfc::df::Fifo<dfc::axis::Flit>& out_;
  Shape3 image_shape_;
  int cycles_per_word_;
  DmaBus* bus_;
  std::uint64_t next_send_cycle_ = 0;
  std::deque<dfc::axis::Flit> buffer_;
  std::int64_t words_into_image_ = 0;
  std::uint64_t images_started_ = 0;
  std::uint64_t images_sent_ = 0;
  std::vector<std::uint64_t> inject_cycles_;
};

class DmaSink final : public dfc::df::Process {
 public:
  DmaSink(std::string name, dfc::df::Fifo<dfc::axis::Flit>& in, std::int64_t values_per_image,
          int cycles_per_word = 1, DmaBus* bus = nullptr);

  void on_clock() override;
  void reset() override;
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override { return {{&in_}, {}}; }

  bool wants_bus(std::uint64_t now) const {
    return now >= next_recv_cycle_ && in_.can_pop();
  }

  std::uint64_t images_completed() const { return completion_cycles_.size(); }

  /// Words the sink waits for before it closes an image.
  std::int64_t values_per_image() const { return values_per_image_; }

  /// Cycle at which image i's last output word arrived.
  const std::vector<std::uint64_t>& completion_cycles() const { return completion_cycles_; }

  /// Classifier outputs per image.
  const std::vector<std::vector<float>>& outputs() const { return outputs_; }

  /// Arms the end-of-stream guard: every received beat is checked for framing
  /// (TLAST must mark exactly the last value of an image — a dropped or
  /// duplicated flit upstream desynchronizes it) and for range (finite,
  /// |v| <= range_bound). Pure observation: never changes timing or data.
  void set_stream_guard(bool on, float range_bound = 0.0f) {
    guard_enabled_ = on;
    guard_bound_ = range_bound;
  }
  /// True while the guard is armed — another "being watched" marker the
  /// compiled-schedule fast path checks before skipping cycle-level stepping.
  bool stream_guard_enabled() const { return guard_enabled_; }
  std::uint64_t guard_framing_errors() const { return guard_framing_errors_; }
  std::uint64_t guard_range_errors() const { return guard_range_errors_; }
  /// Cycle of the first guard violation (kNoError while clean).
  std::uint64_t first_guard_error_cycle() const { return first_guard_error_cycle_; }

  static constexpr std::uint64_t kNoError = ~std::uint64_t{0};

 private:
  void guard_check(const dfc::axis::Flit& flit);

  dfc::df::Fifo<dfc::axis::Flit>& in_;
  std::int64_t values_per_image_;
  int cycles_per_word_;
  DmaBus* bus_;
  std::uint64_t next_recv_cycle_ = 0;
  std::vector<float> current_;
  std::vector<std::uint64_t> completion_cycles_;
  std::vector<std::vector<float>> outputs_;

  bool guard_enabled_ = false;
  float guard_bound_ = 0.0f;
  std::uint64_t guard_framing_errors_ = 0;
  std::uint64_t guard_range_errors_ = 0;
  std::uint64_t first_guard_error_cycle_ = kNoError;
};

}  // namespace dfc::core
