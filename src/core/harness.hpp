// Host-side measurement harness (the simulated MicroBlaze + AXI Timer).
//
// Two execution modes reproduce the paper's evaluation:
//  * run_batch: images stream back to back, so at steady state every layer
//    works concurrently (the high-level pipeline, Fig. 6);
//  * run_sequential: each image is fully processed (drained) before the next
//    is injected — the no-pipeline baseline the batch mode is compared to.
//
// Orthogonally, BuildOptions::execution_mode selects the engine: the
// cycle-accurate two-phase scheduler (ground truth), or the compiled static
// schedule (core/schedule.hpp) that replays per-image inject/completion
// cycles and bit-identical logits without per-cycle FIFO handshakes. The
// compiled path falls back to the cycle engine automatically whenever the
// context is observed or perturbed (trace, stall accounting, fault hook,
// integrity/stream guards, paranoid mode) — see compiled_mode_legal().
//
// run_timing / run_timing_sequential serve callers that read only cycles
// (service tables, replica warm-up, schedule calibration): the same engine
// runs the same handshakes with the processes' value work switched off
// (DESIGN.md §17), and the result carries no outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "tensor/tensor.hpp"

namespace dfc::core {

class CompiledSchedule;
class FunctionalModel;

/// Fabric clock of the paper's designs (100 MHz on the VC707).
constexpr double kClockHz = 100e6;

inline double cycles_to_seconds(double cycles, double clock_hz = kClockHz) {
  return cycles / clock_hz;
}
inline double cycles_to_us(double cycles, double clock_hz = kClockHz) {
  return cycles / clock_hz * 1e6;
}

/// How a harness run ended. kTimeout/kDeadlock results are partial — they
/// carry whatever completed before the watchdog fired, so fault campaigns
/// and DSE validation loops can classify a hang without losing the run.
enum class RunStatus { kOk, kTimeout, kDeadlock };

const char* run_status_name(RunStatus status);

struct BatchResult {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;  ///< completion of the last image (kOk), or
                                ///< the cycle the watchdog aborted at
  std::vector<std::uint64_t> inject_cycles;
  std::vector<std::uint64_t> completion_cycles;
  std::vector<std::vector<float>> outputs;  ///< classifier logits per image
                                            ///< (empty for timing-only runs)

  RunStatus status = RunStatus::kOk;
  std::size_t requested = 0;  ///< images the run was asked to process
  std::string error;          ///< watchdog detail when !ok()

  bool ok() const { return status == RunStatus::kOk; }
  std::size_t completed() const { return completion_cycles.size(); }

  std::size_t batch_size() const { return completed(); }
  std::uint64_t total_cycles() const { return end_cycle - start_cycle; }

  /// The paper's Fig. 6 metric: batch wall time divided by batch size.
  /// An empty batch (possible for a default-constructed result) yields 0
  /// rather than dividing by zero.
  double mean_cycles_per_image() const {
    if (batch_size() == 0) return 0.0;
    return static_cast<double>(total_cycles()) / static_cast<double>(batch_size());
  }

  /// End-to-end latency of image i (injection to last output word).
  std::uint64_t image_latency_cycles(std::size_t i) const {
    return completion_cycles.at(i) - inject_cycles.at(i);
  }

  /// Completion-to-completion intervals: element i is the gap between the
  /// completions of images i and i+1 (size batch_size() - 1).
  std::vector<std::uint64_t> completion_intervals() const;

  /// Steady-state initiation interval: the median over a trailing window of
  /// completion intervals. The window holds min(8, ceil(intervals/2))
  /// intervals — never more than the trailing half, so for short batches it
  /// cannot reach back into the pipeline-fill transients (whose inflated
  /// intervals used to leak into the reported steady rate); within the
  /// window the median still rejects one-off hiccups such as a FIFO refill
  /// after a drain. Batches of fewer than two images have no interval and
  /// yield 0; the serve path legitimately produces size-1 batches under
  /// light load.
  std::uint64_t steady_interval_cycles() const;

  /// Predicted class of image i (argmax over its logits).
  std::int64_t predicted_class(std::size_t i) const;
};

class AcceleratorHarness {
 public:
  explicit AcceleratorHarness(Accelerator acc);
  ~AcceleratorHarness();

  /// Streams the whole batch back to back (pipelined mode). A run that
  /// exhausts `max_cycles` or deadlocks returns a partial BatchResult with
  /// status kTimeout/kDeadlock instead of throwing — check ok() when a hang
  /// is a possible outcome.
  BatchResult run_batch(const std::vector<Tensor>& images,
                        std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Processes images one at a time, draining the design between images
  /// (no high-level pipeline). Same partial-result semantics as run_batch.
  BatchResult run_sequential(const std::vector<Tensor>& images,
                             std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Streams `n` images back to back for their timing only: the result's
  /// inject and completion cycles, end_cycle and status are run_batch's on
  /// any `n` images, and its outputs are empty. The cycle engine skips the
  /// work on token values unless payloads_watched(), in which case it carries
  /// all-zero images; a compiled-schedule harness replays its schedule.
  BatchResult run_timing(std::size_t n,
                         std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// run_sequential's timing-only counterpart, on run_timing's terms.
  BatchResult run_timing_sequential(
      std::size_t n, std::uint64_t max_cycles = dfc::df::SimContext::kDefaultMaxCycles);

  /// Single-image convenience returning the logits. Throws InternalError if
  /// the image does not complete (use run_batch for classifiable timeouts).
  std::vector<float> run_image(const Tensor& image);

  Accelerator& accelerator() { return acc_; }
  const NetworkSpec& spec() const { return acc_.spec; }

  /// True while a feature that reads token payloads is attached: a cycle
  /// hook (fault injection), integrity guards or the sink's stream guard.
  /// Such a run carries values on the cycle engine, timing-only or not.
  bool payloads_watched() const;

  /// True when this harness would take the compiled-schedule fast path on
  /// the next run: the design was built with
  /// ExecutionMode::kCompiledSchedule and nothing forces cycle-level
  /// stepping (no payload reader, no trace/stall accounting, not paranoid).
  bool compiled_mode_legal() const;

  /// Resets the whole design to its power-on state.
  void reset();

 private:
  BatchResult collect(std::uint64_t start_cycle, std::size_t requested) const;
  // `images` null means a timing-only run of `n` images.
  BatchResult run_engine(const std::vector<Tensor>* images, std::size_t n,
                         std::uint64_t max_cycles, bool sequential);
  BatchResult run_compiled(const std::vector<Tensor>* images, std::size_t n,
                           std::uint64_t max_cycles, bool sequential);

  Accelerator acc_;
  // Lazily fetched state of the fast path; absent until first used. Both are
  // process-wide shared: the schedule by timing fingerprint, the functional
  // model (with its logits memo) by full network content.
  std::shared_ptr<const CompiledSchedule> batch_schedule_;
  std::shared_ptr<const CompiledSchedule> sequential_schedule_;
  std::shared_ptr<const FunctionalModel> functional_;
};

}  // namespace dfc::core
