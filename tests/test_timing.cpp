// Timing-only runs (DESIGN.md §17): run_timing must reproduce, cycle for
// cycle, what run_batch measures on the same harness — inject and completion
// cycles, end_cycle, status, every FIFO statistic, DMA bus and link words —
// on one board and on lockstepped multi-board cuts, at every DMA rate and
// bus mode, and when a payload reader forces the value path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/presets.hpp"
#include "fault/injector.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"

namespace dfc {
namespace {

using core::AcceleratorHarness;
using core::BatchResult;
using core::BuildOptions;
using core::NetworkSpec;
using core::RunStatus;
using df::FifoStats;
using df::SimContext;
using mfpga::MultiFpgaHarness;

struct StatsSnapshot {
  std::vector<FifoStats> stats;
  std::vector<FifoStats> lifetime;
};

StatsSnapshot snapshot(const std::vector<const SimContext*>& contexts) {
  StatsSnapshot s;
  for (const SimContext* ctx : contexts) {
    for (std::size_t i = 0; i < ctx->fifo_count(); ++i) {
      s.stats.push_back(ctx->fifo(i).stats());
      s.lifetime.push_back(ctx->fifo(i).lifetime_stats());
    }
  }
  return s;
}

void expect_same_stats(const FifoStats& a, const FifoStats& b, const std::string& what) {
  EXPECT_EQ(a.pushes, b.pushes) << what;
  EXPECT_EQ(a.pops, b.pops) << what;
  EXPECT_EQ(a.max_occupancy, b.max_occupancy) << what;
  EXPECT_EQ(a.full_stall_cycles, b.full_stall_cycles) << what;
  EXPECT_EQ(a.empty_stall_cycles, b.empty_stall_cycles) << what;
}

void expect_same_timing(const BatchResult& value, const BatchResult& timing) {
  EXPECT_EQ(timing.status, value.status);
  EXPECT_EQ(timing.requested, value.requested);
  EXPECT_EQ(timing.start_cycle, value.start_cycle);
  EXPECT_EQ(timing.end_cycle, value.end_cycle);
  EXPECT_EQ(timing.inject_cycles, value.inject_cycles);
  EXPECT_EQ(timing.completion_cycles, value.completion_cycles);
  EXPECT_TRUE(timing.outputs.empty());
}

/// The value run goes first, so the timing run's lifetime statistics are
/// the value run's doubled (max occupancy: equal). Per-run statistics are
/// reset at each run's start and must match outright.
void expect_same_fifo_traffic(const StatsSnapshot& value, const StatsSnapshot& timing) {
  ASSERT_EQ(value.stats.size(), timing.stats.size());
  for (std::size_t i = 0; i < value.stats.size(); ++i) {
    const std::string what = "FIFO #" + std::to_string(i);
    expect_same_stats(value.stats[i], timing.stats[i], what + " stats()");
    FifoStats doubled = value.lifetime[i];
    doubled.pushes *= 2;
    doubled.pops *= 2;
    doubled.full_stall_cycles *= 2;
    doubled.empty_stall_cycles *= 2;
    expect_same_stats(doubled, timing.lifetime[i], what + " lifetime_stats()");
  }
}

BuildOptions dma_options(int cycles_per_word, bool shared_bus) {
  BuildOptions opts;
  opts.dma_cycles_per_word = cycles_per_word;
  opts.dma_shared_bus = shared_bus;
  return opts;
}

/// run_batch then run_timing on one single-board harness.
void check_single_board(const NetworkSpec& spec, const BuildOptions& opts, std::size_t n,
                        std::uint64_t max_cycles = SimContext::kDefaultMaxCycles) {
  AcceleratorHarness harness(core::build_accelerator(spec, opts));
  const SimContext& ctx = *harness.accelerator().ctx;
  const core::DmaBus* bus = harness.accelerator().bus.get();

  const BatchResult value = harness.run_batch(report::random_images(spec, n), max_cycles);
  const StatsSnapshot value_stats = snapshot({&ctx});
  const std::uint64_t value_words = bus != nullptr ? bus->words_transferred() : 0;

  const BatchResult timing = harness.run_timing(n, max_cycles);
  expect_same_timing(value, timing);
  expect_same_fifo_traffic(value_stats, snapshot({&ctx}));
  if (bus != nullptr) {
    EXPECT_EQ(bus->words_transferred(), value_words);
  }
  // Nothing read payloads, so the timing run stored no sink values.
  EXPECT_TRUE(harness.accelerator().sink->outputs().empty());
}

/// run_batch then run_timing on one contiguous multi-board cut.
void check_multi_board(const NetworkSpec& spec, const BuildOptions& base, std::size_t boards,
                       std::size_t n) {
  const core::InterLinkModel link{};
  const mfpga::MultiFpgaPlan plan =
      mfpga::partition_network_exact(spec, boards, link.link, link.credits);
  BuildOptions opts = base;
  opts.link = link.link;
  MultiFpgaHarness harness(mfpga::build_multi_fpga(spec, plan.layer_device, opts, link.credits));
  std::vector<const SimContext*> contexts;
  for (std::size_t d = 0; d < harness.device_count(); ++d) {
    contexts.push_back(&harness.device_context(d));
  }
  auto bus_words = [&] {
    std::vector<std::uint64_t> words;
    for (const auto& dev : harness.accelerator().devices) {
      if (dev.bus) words.push_back(dev.bus->words_transferred());
    }
    return words;
  };

  const BatchResult value = harness.run_batch(report::random_images(spec, n));
  ASSERT_TRUE(value.ok()) << value.error;
  const StatsSnapshot value_stats = snapshot(contexts);
  const std::vector<std::uint64_t> value_bus = bus_words();
  const std::uint64_t value_link = harness.accelerator().link_words_transferred();

  const BatchResult timing = harness.run_timing(n);
  expect_same_timing(value, timing);
  expect_same_fifo_traffic(value_stats, snapshot(contexts));
  EXPECT_EQ(bus_words(), value_bus);
  EXPECT_EQ(harness.accelerator().link_words_transferred(), value_link);
  EXPECT_TRUE(harness.accelerator().sink->outputs().empty());
}

struct Design {
  NetworkSpec spec;
  std::size_t max_boards;
  std::size_t batch;
};

std::vector<Design> designs() {
  return {{core::make_usps_spec(1), 4, 6}, {core::make_cifar_spec(2), 2, 3}};
}

TEST(TimingOnlyTest, MatchesValueRunsAcrossDmaRatesBusModesAndBoards) {
  for (const Design& d : designs()) {
    for (int cpw = 1; cpw <= 4; ++cpw) {
      for (const bool shared : {true, false}) {
        for (std::size_t boards = 1; boards <= d.max_boards; ++boards) {
          SCOPED_TRACE(d.spec.name + " cpw " + std::to_string(cpw) +
                       (shared ? " shared" : " private") + " bus, " + std::to_string(boards) +
                       " board(s)");
          if (boards == 1) {
            check_single_board(d.spec, dma_options(cpw, shared), d.batch);
          } else {
            check_multi_board(d.spec, dma_options(cpw, shared), boards, d.batch);
          }
        }
      }
    }
  }
}

TEST(TimingOnlyTest, SequentialRunsMatch) {
  const NetworkSpec spec = core::make_usps_spec(1);
  AcceleratorHarness harness(core::build_accelerator(spec, dma_options(3, true)));
  const BatchResult value = harness.run_sequential(report::random_images(spec, 4));
  const BatchResult timing = harness.run_timing_sequential(4);
  expect_same_timing(value, timing);
}

TEST(TimingOnlyTest, TimeoutEndsAtTheSameCycle) {
  const NetworkSpec spec = core::make_usps_spec(1);
  check_single_board(spec, dma_options(2, true), 8, 1'500);

  AcceleratorHarness harness(core::build_accelerator(spec));
  const BatchResult timing = harness.run_timing(8, 1'500);
  EXPECT_EQ(timing.status, RunStatus::kTimeout);
  EXPECT_EQ(timing.end_cycle, 1'500u);
  EXPECT_LT(timing.completed(), 8u);

  core::BuildOptions opts;
  opts.link = core::LinkModel{40, 4};
  MultiFpgaHarness multi(mfpga::build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  const BatchResult mv = multi.run_batch(report::random_images(spec, 8), 600);
  const BatchResult mt = multi.run_timing(8, 600);
  EXPECT_EQ(mv.status, RunStatus::kTimeout);
  expect_same_timing(mv, mt);
}

TEST(TimingOnlyTest, DeadlockEndsAtTheSameCycle) {
  // A DMA word every 12 cycles leaves 11 silent cycles between transfers; an
  // idle limit of 8 declares that a deadlock in both run modes.
  const NetworkSpec spec = core::make_usps_spec(1);
  AcceleratorHarness harness(core::build_accelerator(spec, dma_options(12, false)));
  harness.accelerator().ctx->set_idle_limit(8);
  const BatchResult value = harness.run_batch(report::random_images(spec, 2));
  const BatchResult timing = harness.run_timing(2);
  EXPECT_EQ(value.status, RunStatus::kDeadlock);
  expect_same_timing(value, timing);

  core::BuildOptions opts;
  opts.link = core::LinkModel{40, 4};
  MultiFpgaHarness multi(mfpga::build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  multi.set_idle_limit(8);
  const BatchResult mv = multi.run_batch(report::random_images(spec, 2));
  const BatchResult mt = multi.run_timing(2);
  EXPECT_EQ(mv.status, RunStatus::kDeadlock);
  expect_same_timing(mv, mt);
}

TEST(TimingOnlyTest, ObservedRunsMatch) {
  // Stall accounting steps every process every cycle and counts empty
  // stalls; neither reads payloads, so the timing run stays value-free.
  const NetworkSpec spec = core::make_usps_spec(1);
  AcceleratorHarness harness(core::build_accelerator(spec));
  harness.accelerator().ctx->set_stall_accounting(true);
  const SimContext& ctx = *harness.accelerator().ctx;
  const BatchResult value = harness.run_batch(report::random_images(spec, 3));
  const StatsSnapshot value_stats = snapshot({&ctx});
  const BatchResult timing = harness.run_timing(3);
  expect_same_timing(value, timing);
  expect_same_fifo_traffic(value_stats, snapshot({&ctx}));
  EXPECT_FALSE(harness.payloads_watched());
}

/// A fault plan that jams the DMA input handshake for 200 cycles — it moves
/// the timing — with the integrity guards armed.
fault::FaultPlan jam_plan(const std::string& fifo) {
  fault::FaultPlan plan;
  plan.integrity_guards = true;
  fault::FaultSpec jam;
  jam.kind = fault::FaultKind::kJam;
  jam.fifo = fifo;
  jam.cycle = 100;
  jam.jam_cycles = 200;
  plan.fifo_faults.push_back(jam);
  return plan;
}

TEST(TimingOnlyTest, PayloadReadersTakeTheValuePathAndStillMatch) {
  const NetworkSpec spec = core::make_usps_spec(1);
  AcceleratorHarness harness(core::build_accelerator(spec));
  const BatchResult clean = harness.run_timing(4);

  // One injector per run: its applied-fault bookkeeping survives a reset.
  BatchResult value;
  {
    fault::FaultInjector injector(jam_plan("dma.in"));
    injector.attach(*harness.accelerator().ctx);
    value = harness.run_batch(report::random_images(spec, 4));
  }
  BatchResult timing;
  {
    fault::FaultInjector injector(jam_plan("dma.in"));
    injector.attach(*harness.accelerator().ctx);
    EXPECT_TRUE(harness.payloads_watched());
    timing = harness.run_timing(4);
    // The value path ran: the sink stored the zero images' logits.
    EXPECT_EQ(harness.accelerator().sink->outputs().size(), 4u);
    EXPECT_FALSE(injector.any_detection());
  }
  ASSERT_TRUE(value.ok()) << value.error;
  expect_same_timing(value, timing);
  EXPECT_GT(timing.end_cycle, clean.end_cycle);  // the jam moved the timing

  // The sink stream guard alone also forces the value path.
  harness.accelerator().sink->set_stream_guard(true, 1e6f);
  EXPECT_TRUE(harness.payloads_watched());
  expect_same_timing(harness.run_batch(report::random_images(spec, 4)), harness.run_timing(4));
  EXPECT_EQ(harness.accelerator().sink->outputs().size(), 4u);
  EXPECT_EQ(harness.accelerator().sink->guard_framing_errors(), 0u);
  harness.accelerator().sink->set_stream_guard(false);

  // Multi-board: guards on every board.
  core::BuildOptions opts;
  opts.link = core::LinkModel{40, 4};
  MultiFpgaHarness multi(mfpga::build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  multi.enable_integrity_guards(nullptr, 1e6f);
  EXPECT_TRUE(multi.payloads_watched());
  expect_same_timing(multi.run_batch(report::random_images(spec, 4)), multi.run_timing(4));
  EXPECT_EQ(multi.accelerator().sink->outputs().size(), 4u);
}

TEST(TimingOnlyTest, ValueRunAfterTimingRunKeepsItsLogits) {
  // The value work is switched back on after a timing run: logits of a
  // batch after run_timing equal those on a fresh harness.
  const NetworkSpec spec = core::make_usps_spec(1);
  const auto images = report::random_images(spec, 3);
  AcceleratorHarness fresh(core::build_accelerator(spec));
  AcceleratorHarness reused(core::build_accelerator(spec));
  reused.run_timing(5);
  EXPECT_TRUE(reused.accelerator().ctx->carry_values());
  const BatchResult a = fresh.run_batch(images);
  const BatchResult b = reused.run_batch(images);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
}

TEST(TimingOnlyTest, CompiledHarnessReplaysItsSchedule) {
  const NetworkSpec spec = core::make_usps_spec(1);
  BuildOptions opts;
  opts.execution_mode = core::ExecutionMode::kCompiledSchedule;
  AcceleratorHarness compiled(core::build_accelerator(spec, opts));
  AcceleratorHarness engine(core::build_accelerator(spec));
  ASSERT_TRUE(compiled.compiled_mode_legal());
  expect_same_timing(engine.run_batch(report::random_images(spec, 20)), compiled.run_timing(20));
}

TEST(TimingOnlyTest, ContextRefusesTimingOnlyWithAPayloadReader) {
  const NetworkSpec spec = core::make_usps_spec(1);
  core::Accelerator acc = core::build_accelerator(spec);
  acc.ctx->enable_integrity_guards(nullptr, 1e6f);
  EXPECT_THROW(acc.ctx->set_carry_values(false), ConfigError);
  acc.ctx->disable_integrity_guards();
  acc.ctx->set_carry_values(false);
  EXPECT_FALSE(acc.ctx->carry_values());
  EXPECT_THROW(AcceleratorHarness(core::build_accelerator(spec)).run_timing(0), ConfigError);
}

}  // namespace
}  // namespace dfc
