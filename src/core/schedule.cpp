#include "core/schedule.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <variant>

#include "common/error.hpp"
#include "core/builder.hpp"
#include "core/harness.hpp"

namespace dfc::core {

namespace {

// Calibration sizing. The fill phase is bounded by the layer count (each
// stage must see its first window), so 3 periods of steady state are
// comfortably inside a few-images-per-layer batch; if the tail is not yet
// periodic the batch doubles, up to a bound that would only be hit if the
// design had data- or history-dependent timing — which the whole dataflow
// construction rules out.
std::size_t initial_calibration_batch(const NetworkSpec& spec) {
  return std::max<std::size_t>(8, 3 * spec.size() + 4);
}
constexpr std::size_t kMaxCalibrationBatch = 512;
constexpr std::size_t kMinRepeats = 3;

struct Calibration {
  std::vector<std::uint64_t> inject;
  std::vector<std::uint64_t> complete;
};

/// One timing-only cycle-engine run of `n` images (timing is
/// data-independent, so no values are carried).
Calibration calibrate(const NetworkSpec& spec, const BuildOptions& options,
                      ScheduleMode mode, std::size_t n) {
  BuildOptions cycle_options = options;
  cycle_options.execution_mode = ExecutionMode::kCycleAccurate;
  AcceleratorHarness harness(build_accelerator(spec, cycle_options));
  const BatchResult r = mode == ScheduleMode::kBatch ? harness.run_timing(n)
                                                     : harness.run_timing_sequential(n);
  DFC_CHECK(r.ok(), "calibration run of '" + spec.name + "' ended " +
                        run_status_name(r.status) + ": " + r.error);
  return {r.inject_cycles, r.completion_cycles};
}

/// Smallest image period p such that the last kMinRepeats periods of both
/// the inject and the completion streams repeat with one common cycle
/// length. Returns 0 when no period fits in the calibrated tail.
std::size_t detect_period(const Calibration& cal, std::uint64_t& period_cycles_out) {
  const std::size_t n = cal.inject.size();
  for (std::size_t p = 1; kMinRepeats * p + 1 <= n; ++p) {
    const std::uint64_t period_cycles = cal.complete[n - 1] - cal.complete[n - 1 - p];
    bool ok = true;
    for (std::size_t i = n - 1 - kMinRepeats * p; ok && i + p <= n - 1; ++i) {
      ok = cal.complete[i + p] - cal.complete[i] == period_cycles &&
           cal.inject[i + p] - cal.inject[i] == period_cycles;
    }
    if (ok) {
      period_cycles_out = period_cycles;
      return p;
    }
  }
  return 0;
}

}  // namespace

CompiledSchedule compile_schedule(const NetworkSpec& spec, const BuildOptions& options,
                                  ScheduleMode mode) {
  for (std::size_t n = initial_calibration_batch(spec); n <= kMaxCalibrationBatch; n *= 2) {
    const Calibration cal = calibrate(spec, options, mode, n);
    DFC_CHECK(cal.inject.size() == n && cal.complete.size() == n,
              "calibration run lost images");
    std::uint64_t period_cycles = 0;
    const std::size_t period_images = detect_period(cal, period_cycles);
    if (period_images == 0) continue;

    CompiledSchedule sched;
    sched.mode_ = mode;
    sched.inject_prefix_ = cal.inject;
    sched.complete_prefix_ = cal.complete;
    sched.period_images_ = period_images;
    sched.period_cycles_ = period_cycles;
    return sched;
  }
  // Unreachable for any design this builder can produce: the network is a
  // static-schedule Kahn process network, so a steady period must emerge.
  throw InternalError("compile_schedule: no steady period within " +
                      std::to_string(kMaxCalibrationBatch) + " calibration images for '" +
                      spec.name + "'");
}

std::string schedule_cache_key(const NetworkSpec& spec, const BuildOptions& options,
                               ScheduleMode mode) {
  std::ostringstream key;
  key << "mode=" << static_cast<int>(mode) << ";in=" << spec.input_shape.str()
      << ";lat=" << spec.latency.fmul << ',' << spec.latency.fadd
      << ";fifo=" << options.stream_fifo_capacity << ',' << options.window_fifo_capacity
      << ";dma=" << options.dma_cycles_per_word << ',' << (options.dma_shared_bus ? 1 : 0)
      << ";link=" << options.link.latency_cycles << ',' << options.link.cycles_per_word
      << ";dev=";
  for (const std::size_t d : options.layer_device) key << d << '.';
  for (const LayerSpec& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      key << ";conv(" << conv->in_shape.str() << ',' << conv->out_fm << ',' << conv->kh << 'x'
          << conv->kw << ",s" << conv->stride << ",p" << conv->pad << ',' << conv->in_ports
          << '/' << conv->out_ports << ",a" << static_cast<int>(conv->act)
          << (conv->use_filter_chain ? ",fc" : "") << ')';
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      key << ";pool(" << pool->in_shape.str() << ',' << static_cast<int>(pool->mode) << ','
          << pool->kh << 'x' << pool->kw << ",s" << pool->stride << ',' << pool->ports
          << (pool->use_filter_chain ? ",fc" : "") << ')';
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      key << ";fcn(" << fcn.in_count << ',' << fcn.out_count << ',' << fcn.num_accumulators
          << ",a" << static_cast<int>(fcn.act) << ')';
    }
  }
  return key.str();
}

namespace {
std::mutex g_schedule_cache_mutex;
std::map<std::string, std::shared_ptr<const CompiledSchedule>>& schedule_cache() {
  static std::map<std::string, std::shared_ptr<const CompiledSchedule>> cache;
  return cache;
}
}  // namespace

std::shared_ptr<const CompiledSchedule> shared_schedule(const NetworkSpec& spec,
                                                        const BuildOptions& options,
                                                        ScheduleMode mode) {
  const std::string key = schedule_cache_key(spec, options, mode);
  // The compile runs under the lock on purpose: sweep workers asking for the
  // same design serialize on one calibration instead of each paying it.
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  auto& cache = schedule_cache();
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto sched = std::make_shared<const CompiledSchedule>(compile_schedule(spec, options, mode));
  cache.emplace(key, sched);
  return sched;
}

void clear_schedule_cache() {
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  schedule_cache().clear();
}

std::size_t schedule_cache_size() {
  std::lock_guard<std::mutex> lock(g_schedule_cache_mutex);
  return schedule_cache().size();
}

}  // namespace dfc::core
