// Tests for the static design verifier (src/verify): one minimal triggering
// design per diagnostic code (asserted by code, never by message text), the
// deadlock cross-validation suite (every deadlock-class diagnostic has a sim
// twin that reaches RunStatus::kDeadlock in the cycle engine; clean presets
// simulate with unchanged logits), the verified graph equal to the built
// one, mutated saved specs that load or fail cleanly, deterministic JSON,
// the promoted builder/exec diagnostics, and builds that
// collect every spec error before constructing anything.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/spec_io.hpp"
#include "dataflow/endpoints.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "sst/port_adapters.hpp"
#include "verify/verifier.hpp"

namespace dfc::verify {
namespace {

using dfc::axis::Flit;
using dfc::core::BuildOptions;
using dfc::core::ConvLayerSpec;
using dfc::core::FcnLayerSpec;
using dfc::core::NetworkSpec;
using dfc::core::PoolLayerSpec;
using dfc::core::RunStatus;
using dfc::df::Fifo;
using dfc::df::SimContext;

/// Smallest valid design: one 3x3 conv, 2 -> 2 feature maps on 4x4 input.
NetworkSpec tiny_spec() {
  NetworkSpec spec;
  spec.name = "tiny";
  spec.input_shape = Shape3{2, 4, 4};
  ConvLayerSpec conv;
  conv.in_shape = spec.input_shape;
  conv.out_fm = 2;
  conv.kh = conv.kw = 3;
  conv.weights.assign(2 * 2 * 9, 0.1f);
  conv.biases.assign(2, 0.0f);
  spec.layers.push_back(conv);
  return spec;
}

/// tiny_spec + a pool + an fcn, for partition/boundary tests.
NetworkSpec tiny_pipeline() {
  NetworkSpec spec = tiny_spec();
  PoolLayerSpec pool;
  pool.in_shape = Shape3{2, 2, 2};
  pool.kh = pool.kw = 2;
  pool.stride = 2;
  spec.layers.push_back(pool);
  FcnLayerSpec fcn;
  fcn.in_count = 2;
  fcn.out_count = 3;
  fcn.weights.assign(2 * 3, 0.05f);
  fcn.biases.assign(3, 0.0f);
  spec.layers.push_back(fcn);
  return spec;
}

// --- one minimal triggering design per code ----------------------------------

TEST(VerifyCodesTest, DF101ShapeMismatch) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).in_shape = Shape3{3, 4, 4};
  const auto r = verify_design(spec);
  EXPECT_TRUE(r.has(Code::DF101));
  EXPECT_FALSE(r.clean());

  // A zero stride leaves the output shape undefined.
  NetworkSpec strideless = tiny_pipeline();
  std::get<PoolLayerSpec>(strideless.layers[1]).stride = 0;
  EXPECT_TRUE(verify_design(strideless).has(Code::DF101));

  // Windows the cores cannot hold: more than 64 taps, padding as wide as
  // the kernel, a pool window wider than its input (whose truncated output
  // size is still positive), and operator latencies out of range.
  NetworkSpec wide = tiny_spec();
  auto& wide_conv = std::get<ConvLayerSpec>(wide.layers[0]);
  wide_conv.kh = wide_conv.kw = 9;
  wide_conv.pad = 3;
  wide_conv.weights.assign(2 * 2 * 81, 0.1f);
  NetworkSpec overpadded = tiny_spec();
  std::get<ConvLayerSpec>(overpadded.layers[0]).pad = 3;
  NetworkSpec wide_pool = tiny_pipeline();
  auto& pool = std::get<PoolLayerSpec>(wide_pool.layers[1]);
  pool.kh = pool.kw = 3;
  NetworkSpec slow_add = tiny_spec();
  slow_add.latency.fadd = 257;
  NetworkSpec no_mul = tiny_spec();
  no_mul.latency.fmul = 0;
  // A line buffer beyond any FPGA's on-chip RAM: 8 rows of 65,536 x 65,536
  // words, from a 16 MB weight table.
  NetworkSpec huge;
  huge.name = "huge";
  huge.input_shape = Shape3{65536, 8, 65536};
  ConvLayerSpec huge_conv;
  huge_conv.in_shape = huge.input_shape;
  huge_conv.kh = huge_conv.kw = 8;
  huge_conv.weights.assign(65536 * 64, 0.0f);
  huge_conv.biases.assign(1, 0.0f);
  huge.layers.push_back(huge_conv);
  for (const NetworkSpec& bad : {wide, overpadded, wide_pool, slow_add, no_mul, huge}) {
    const auto rb = verify_design(bad);
    EXPECT_TRUE(rb.has(Code::DF101)) << rb.render();
    EXPECT_THROW(bad.validate(), VerifyError);
  }
}

TEST(VerifyCodesTest, DF102PortDivisibility) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.out_fm = 3;  // 3 FMs on 2 out ports
  conv.out_ports = 2;
  conv.weights.assign(3 * 2 * 9, 0.1f);
  conv.biases.assign(3, 0.0f);
  EXPECT_TRUE(verify_design(spec).has(Code::DF102));

  // The classifier's accumulator interleave must be 1..256 lanes.
  for (int lanes : {0, 257}) {
    NetworkSpec interleave = tiny_pipeline();
    std::get<FcnLayerSpec>(interleave.layers[2]).num_accumulators = lanes;
    EXPECT_TRUE(verify_design(interleave).has(Code::DF102)) << lanes;
  }
}

TEST(VerifyCodesTest, DF103WeightTableSize) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).weights.pop_back();
  EXPECT_TRUE(verify_design(spec).has(Code::DF103));
}

TEST(VerifyCodesTest, DF104FilterChainWithPadding) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.pad = 1;
  conv.use_filter_chain = true;
  EXPECT_TRUE(verify_design(spec).has(Code::DF104));
}

TEST(VerifyCodesTest, DF105ClassifierInputCount) {
  NetworkSpec spec = tiny_pipeline();
  std::get<FcnLayerSpec>(spec.layers[2]).in_count = 7;
  EXPECT_TRUE(verify_design(spec).has(Code::DF105));
}

TEST(VerifyCodesTest, DF201ShallowFifo) {
  BuildOptions opts;
  opts.stream_fifo_capacity = 1;
  const auto r = verify_design(tiny_spec(), opts);
  EXPECT_TRUE(r.has(Code::DF201));
  EXPECT_TRUE(r.clean()) << "capacity 1 throttles but does not break the design";

  BuildOptions zero;
  zero.window_fifo_capacity = 0;
  EXPECT_FALSE(verify_design(tiny_spec(), zero).clean())
      << "capacity 0 can never transfer and must be an error";
}

TEST(VerifyCodesTest, DF202LinkThrottles) {
  NetworkSpec spec = tiny_pipeline();
  BuildOptions opts;
  opts.link = dfc::core::LinkModel{40, 1000};  // 1 word per 1000 cycles
  const std::vector<std::size_t> cut{0, 1, 1};
  const auto r = verify_design_multi(spec, cut, opts);
  EXPECT_TRUE(r.has(Code::DF202));
  EXPECT_TRUE(r.clean()) << "a throttling link is a warning, not an error";
}

TEST(VerifyCodesTest, DF203CreditWindowBelowRoundTrip) {
  NetworkSpec spec = tiny_pipeline();
  BuildOptions opts;
  opts.link = dfc::core::LinkModel{40, 1};  // round trip needs 82 credits
  const std::vector<std::size_t> cut{0, 1, 1};
  EXPECT_TRUE(verify_design_multi(spec, cut, opts, /*link_credits=*/1).has(Code::DF203));
  EXPECT_FALSE(verify_design_multi(spec, cut, opts, /*link_credits=*/0).has(Code::DF203))
      << "credits=0 auto-sizes the window";
}

TEST(VerifyCodesTest, DF001DanglingProducer) {
  DesignGraph g;
  const int src = g.add_node("src");
  const int ch = g.add_channel("fed");
  g.bind_producer(ch, src);
  const int orphan = g.add_channel("orphan");
  const int sink = g.add_node("sink");
  g.bind_consumer(ch, sink);
  g.bind_consumer(orphan, sink);
  const auto r = verify_graph(g);
  EXPECT_TRUE(r.has(Code::DF001));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF002DanglingConsumer) {
  DesignGraph g;
  const int src = g.add_node("src");
  const int ch = g.add_channel("dead-end");
  g.bind_producer(ch, src);
  EXPECT_TRUE(verify_graph(g).has(Code::DF002));
}

TEST(VerifyCodesTest, DF003DuplicateName) {
  DesignGraph g;
  const int a = g.add_node("stage");
  const int b = g.add_node("stage");
  const int ch = g.add_channel("ch");
  g.bind_producer(ch, a);
  g.bind_consumer(ch, b);
  EXPECT_TRUE(verify_graph(g).has(Code::DF003));
}

TEST(VerifyCodesTest, DF004UnreachableStage) {
  DesignGraph g;
  const int src = g.add_node("src");
  const int sink = g.add_node("sink");
  const int ch = g.add_channel("main");
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  // Two stages feeding each other, cut off from the source.
  const int a = g.add_node("islandA");
  const int b = g.add_node("islandB");
  const int f = g.add_channel("island.fwd");
  const int r = g.add_channel("island.back");
  g.bind_producer(f, a);
  g.bind_consumer(f, b);
  g.bind_producer(r, b);
  g.bind_consumer(r, a);
  const auto rep = verify_graph(g);
  EXPECT_TRUE(rep.has(Code::DF004));
  EXPECT_TRUE(rep.has(Code::DF302)) << "the island is also a token-free cycle";
}

TEST(VerifyCodesTest, DF301SinkDemandExceedsDelivery) {
  DesignGraph g;
  const int src = g.add_node("src");
  const int ch = g.add_channel("ch");
  const int sink = g.add_node("sink");
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  g.nodes[static_cast<std::size_t>(sink)].demand_per_image = 5;
  g.delivered_per_image = 4;
  EXPECT_TRUE(verify_graph(g).has(Code::DF301));
  g.delivered_per_image = 5;
  EXPECT_FALSE(verify_graph(g).has(Code::DF301));
}

TEST(VerifyCodesTest, DF302FeedbackCycle) {
  // src -> merge -> demux -> sink, with demux feeding one output back into
  // the merge: a token-free feedback loop.
  DesignGraph g;
  const int src = g.add_node("src");
  const int merge = g.add_node("merge");
  const int demux = g.add_node("demux");
  const int sink = g.add_node("sink");
  const int in = g.add_channel("src.out");
  const int merged = g.add_channel("merged");
  const int out = g.add_channel("out");
  const int fb = g.add_channel("feedback");
  g.bind_producer(in, src);
  g.bind_consumer(in, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, demux);
  g.bind_producer(out, demux);
  g.bind_consumer(out, sink);
  g.bind_producer(fb, demux);
  g.bind_consumer(fb, merge);
  const auto r = verify_graph(g);
  EXPECT_TRUE(r.has(Code::DF302));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF401BudgetExceeded) {
  const auto spec = dfc::core::make_alexnet_mini_preset().compile_spec();
  const auto r = verify_design(spec);
  EXPECT_TRUE(r.has(Code::DF401));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF402HeadroomWarning) {
  VerifyOptions vopts;
  vopts.headroom_warn_fraction = 0.001;  // anything with a base design trips it
  const auto r = verify_design(tiny_spec(), {}, vopts);
  EXPECT_TRUE(r.has(Code::DF402));
  EXPECT_TRUE(r.clean()) << "headroom is advisory";
}

TEST(VerifyCodesTest, DF403IllegalPartition) {
  const NetworkSpec spec = tiny_pipeline();
  EXPECT_TRUE(verify_design_multi(spec, {0, 1}, {}).has(Code::DF403)) << "coverage";
  EXPECT_TRUE(verify_design_multi(spec, {1, 0, 0}, {}).has(Code::DF403)) << "monotonicity";
  EXPECT_FALSE(verify_design_multi(spec, {0, 0, 1}, {}).has(Code::DF403));
}

// --- deadlock cross-validation: flagged graphs deadlock in the cycle engine --

/// Hand-assembles an Accelerator around `ctx` so AcceleratorHarness can run
/// it and classify the outcome (the builder would refuse these topologies).
dfc::core::Accelerator wrap(std::unique_ptr<SimContext> ctx, dfc::core::DmaSource* source,
                            dfc::core::DmaSink* sink) {
  dfc::core::Accelerator acc;
  acc.ctx = std::move(ctx);
  acc.spec = tiny_spec();  // placeholder; only the engine loop runs
  acc.source = source;
  acc.sink = sink;
  return acc;
}

TEST(VerifyDeadlockTest, DanglingProducerDeadlocksInSim) {
  // A merge reading [fed, orphan] in turn: the orphan FIFO never produces, so
  // the merge wedges after one value. verify_graph flags the orphan as DF001;
  // the cycle engine reaches RunStatus::kDeadlock on the twin.
  DesignGraph g;
  const int src = g.add_node("dma.source");
  const int fed = g.add_channel("fed");
  const int orphan = g.add_channel("orphan");
  const int merge = g.add_node("merge");
  const int merged = g.add_channel("merged");
  const int sink = g.add_node("dma.sink");
  g.bind_producer(fed, src);
  g.bind_consumer(fed, merge);
  g.bind_consumer(orphan, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, sink);
  EXPECT_TRUE(verify_graph(g).has(Code::DF001));

  auto ctx = std::make_unique<SimContext>();
  ctx->set_idle_limit(2'000);
  auto& f_fed = ctx->add_fifo<Flit>("fed", 8);
  auto& f_orphan = ctx->add_fifo<Flit>("orphan", 8);
  auto& f_merged = ctx->add_fifo<Flit>("merged", 8);
  const Shape3 img{1, 2, 2};
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", f_fed, img);
  ctx->add_process<dfc::sst::PortMerge>("merge", 1,
                                        std::vector<Fifo<Flit>*>{&f_fed, &f_orphan}, f_merged);
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", f_merged, img.volume());
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

TEST(VerifyDeadlockTest, SinkDemandMismatchDeadlocksInSim) {
  // Pipeline delivers 4 words/image; the sink insists on 5. DF301 statically,
  // kDeadlock dynamically (the sink waits forever for the fifth word).
  DesignGraph g;
  const int src = g.add_node("dma.source");
  const int ch = g.add_channel("dma.in");
  const int sink = g.add_node("dma.sink");
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  g.nodes[static_cast<std::size_t>(sink)].demand_per_image = 5;
  g.delivered_per_image = 4;
  EXPECT_TRUE(verify_graph(g).has(Code::DF301));

  auto ctx = std::make_unique<SimContext>();
  ctx->set_idle_limit(2'000);
  auto& ch_f = ctx->add_fifo<Flit>("dma.in", 8);
  const Shape3 img{1, 2, 2};  // 4 words
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", ch_f, img);
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", ch_f, 5);
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

TEST(VerifyDeadlockTest, FeedbackCycleDeadlocksInSim) {
  // The DF302 graph above, realised with real adapters: PortMerge reads
  // [src, feedback] in turn; PortDemux routes every second value back into
  // the feedback FIFO. The merge blocks on the empty feedback channel after
  // one value — a circular wait the idle watchdog converts to kDeadlock.
  DesignGraph g;
  const int src = g.add_node("dma.source");
  const int merge = g.add_node("merge");
  const int demux = g.add_node("demux");
  const int sink = g.add_node("dma.sink");
  const int in = g.add_channel("dma.in");
  const int merged = g.add_channel("merged");
  const int out = g.add_channel("out");
  const int fb = g.add_channel("feedback");
  g.bind_producer(in, src);
  g.bind_consumer(in, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, demux);
  g.bind_producer(out, demux);
  g.bind_consumer(out, sink);
  g.bind_producer(fb, demux);
  g.bind_consumer(fb, merge);
  EXPECT_TRUE(verify_graph(g).has(Code::DF302));

  auto ctx = std::make_unique<SimContext>();
  ctx->set_idle_limit(2'000);
  auto& f_in = ctx->add_fifo<Flit>("dma.in", 8);
  auto& f_merged = ctx->add_fifo<Flit>("merged", 8);
  auto& f_out = ctx->add_fifo<Flit>("out", 8);
  auto& f_fb = ctx->add_fifo<Flit>("feedback", 8);
  const Shape3 img{1, 2, 2};
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", f_in, img);
  ctx->add_process<dfc::sst::PortMerge>("merge", 1, std::vector<Fifo<Flit>*>{&f_in, &f_fb},
                                        f_merged);
  ctx->add_process<dfc::sst::PortDemux>("demux", 2, f_merged,
                                        std::vector<Fifo<Flit>*>{&f_out, &f_fb});
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", f_out, img.volume());
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

// --- clean designs: zero diagnostics, unchanged logits -----------------------

TEST(VerifyCleanTest, PresetsVerifyClean) {
  for (const char* name : {"usps", "cifar"}) {
    const auto preset = name == std::string("usps") ? dfc::core::make_usps_preset()
                                                    : dfc::core::make_cifar_preset();
    const auto spec = preset.compile_spec();
    const auto r = verify_design(spec);
    EXPECT_TRUE(r.clean()) << r.render();
    EXPECT_TRUE(r.diagnostics.empty()) << r.render();
    // 2..4-board cuts of the same presets are clean too (with a link fast
    // enough not to throttle; the default 4-cycle/word link earns an honest
    // DF202 warning on the 4-board usps cut).
    const dfc::core::LinkModel fast_link{40, 1};
    BuildOptions mopts;
    mopts.link = fast_link;
    for (std::size_t boards = 2; boards <= 4 && boards <= spec.layers.size(); ++boards) {
      const auto plan = dfc::mfpga::partition_network_exact(spec, boards, fast_link);
      const auto rm = verify_design_multi(spec, plan.layer_device, mopts);
      EXPECT_TRUE(rm.diagnostics.empty()) << rm.render();
      EXPECT_EQ(rm.devices, boards);
    }
  }
}

TEST(VerifyCleanTest, CleanDesignSimulatesWithUnchangedLogits) {
  const auto spec = dfc::core::make_usps_preset().compile_spec();
  ASSERT_TRUE(verify_design(spec).clean());

  const auto images = dfc::report::random_images(spec, 3);
  dfc::core::AcceleratorHarness single(dfc::core::build_accelerator(spec));
  const auto rs = single.run_batch(images);
  ASSERT_EQ(rs.status, RunStatus::kOk);

  const auto plan = dfc::mfpga::partition_network_exact(spec, 2, {});
  ASSERT_TRUE(verify_design_multi(spec, plan.layer_device, {}).clean());
  dfc::mfpga::MultiFpgaHarness multi(
      dfc::mfpga::build_multi_fpga(spec, plan.layer_device, {}));
  const auto rm = multi.run_batch(images);
  ASSERT_EQ(rm.status, RunStatus::kOk);
  EXPECT_EQ(rs.outputs, rm.outputs) << "verified-clean cuts must not change logits";
}

// --- the verified graph is the built graph ----------------------------------

TEST(VerifyBuiltGraphTest, FilterChainDesignCountsEveryBuiltProcessAndFifo) {
  // USPS with the paper's element-level SST filter chain on every layer
  // without padding: the report covers every process and FIFO the builder
  // creates, on one board and on two, and the chain trips no graph rule.
  NetworkSpec spec = dfc::core::make_usps_preset().compile_spec();
  std::size_t chained = 0;
  for (auto& layer : spec.layers) {
    if (auto* conv = std::get_if<ConvLayerSpec>(&layer); conv != nullptr && conv->pad == 0) {
      conv->use_filter_chain = true;
      ++chained;
    } else if (auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      pool->use_filter_chain = true;
      ++chained;
    }
  }
  ASSERT_EQ(chained, 3u);

  const auto r = verify_design(spec);
  const auto acc = dfc::core::build_accelerator(spec);
  EXPECT_EQ(r.stages_checked, acc.ctx->process_count());
  EXPECT_EQ(r.channels_checked, acc.ctx->fifo_count());
  EXPECT_EQ(r.stages_checked, 223u);
  EXPECT_EQ(r.channels_checked, 413u);
  EXPECT_TRUE(r.diagnostics.empty()) << r.render();

  // Cut over two boards: every context's processes and FIFOs, plus one
  // channel per inter-board wire.
  const auto plan = dfc::mfpga::partition_network_exact(spec, 2, {});
  const auto rm = verify_design_multi(spec, plan.layer_device, {});
  const auto multi = dfc::mfpga::build_multi_fpga(spec, plan.layer_device, {});
  std::size_t processes = 0;
  std::size_t channels = multi.wires.size();
  for (const auto& dev : multi.devices) {
    processes += dev.ctx->process_count();
    channels += dev.ctx->fifo_count();
  }
  EXPECT_EQ(rm.stages_checked, processes);
  EXPECT_EQ(rm.channels_checked, channels);
  EXPECT_EQ(rm.errors(), 0u) << rm.render();
  EXPECT_FALSE(rm.has(Code::DF004)) << rm.render();
}

// --- saved specs, mutated, load or report but never crash ------------------

/// Offsets of every length prefix in save_spec's stream of `spec` (name,
/// layer count, each weight and bias table), and of every byte that is not
/// float payload, following the layout in core/spec_io.hpp.
struct SpecLayout {
  std::vector<std::size_t> prefixes;
  std::vector<std::size_t> field_bytes;
  std::size_t size = 0;
};

SpecLayout spec_layout(const NetworkSpec& spec) {
  SpecLayout l;
  const auto field = [&](std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) l.field_bytes.push_back(l.size++);
  };
  const auto table = [&](std::size_t floats) {
    l.prefixes.push_back(l.size);
    field(sizeof(std::uint64_t));
    l.size += floats * sizeof(float);
  };
  field(10 + 4);  // magic "DFCNNSPEC\0", version
  l.prefixes.push_back(l.size);
  field(8 + spec.name.size() + 3 * 8 + 2 * 4);  // name, input shape, latencies
  l.prefixes.push_back(l.size);
  field(8);  // layer count
  for (const auto& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      field(1 + 3 * 8 + 8 + 6 * 4 + 2);
      table(conv->weights.size());
      table(conv->biases.size());
    } else if (std::holds_alternative<PoolLayerSpec>(layer)) {
      field(1 + 3 * 8 + 1 + 4 * 4 + 1);
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      field(1 + 8 + 8 + 1 + 4);
      table(fcn.weights.size());
      table(fcn.biases.size());
    }
  }
  return l;
}

TEST(VerifyMutationTest, MutatedSavedSpecsLoadOrFailCleanly) {
  // Byte flips, truncations and length-prefix overwrites of the saved TC1
  // and TC2 streams. Every mutant either fails to load with a ConfigError or
  // loads and gets a report; nothing else may escape, since verify builds
  // the design it checks.
  constexpr int kMutantsPerKind = 300;
  dfc::Rng rng(0x5eed'18);
  for (const auto& spec : {dfc::core::make_usps_preset().compile_spec(),
                           dfc::core::make_cifar_preset().compile_spec()}) {
    std::stringstream buf;
    dfc::core::save_spec(spec, buf);
    const std::string saved = buf.str();
    const SpecLayout layout = spec_layout(spec);
    ASSERT_EQ(layout.size, saved.size()) << spec.name;

    int loaded = 0;
    const auto check = [&](const std::string& mutant, const std::string& what) {
      std::stringstream in(mutant);
      NetworkSpec back;
      try {
        back = dfc::core::load_spec(in);
      } catch (const dfc::ConfigError&) {
        return;
      }
      ++loaded;
      EXPECT_NO_THROW(verify_design(back)) << spec.name << ": " << what;
    };

    for (int i = 0; i < kMutantsPerKind; ++i) {
      std::string m = saved;
      const auto flips = 1 + rng.next_below(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::size_t at = rng.next_below(2) == 0
                                   ? layout.field_bytes[rng.next_below(layout.field_bytes.size())]
                                   : rng.next_below(m.size());
        m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng.next_below(255)));
      }
      check(m, "flips #" + std::to_string(i));
    }
    for (int i = 0; i < kMutantsPerKind; ++i) {
      check(saved.substr(0, rng.next_below(saved.size())), "truncation #" + std::to_string(i));
    }
    for (int i = 0; i < kMutantsPerKind; ++i) {
      std::string m = saved;
      const std::size_t at = layout.prefixes[rng.next_below(layout.prefixes.size())];
      std::uint64_t value = 0;
      std::memcpy(&value, m.data() + at, sizeof value);
      const std::uint64_t choices[] = {0,        1,         value - 1,          value + 1,
                                       1u << 20, 1u << 28,  (1ull << 28) + 1,  1ull << 32,
                                       ~0ull,    rng.next_u64()};
      value = choices[rng.next_below(std::size(choices))];
      std::memcpy(m.data() + at, &value, sizeof value);
      check(m, "prefix at " + std::to_string(at) + " = " + std::to_string(value));
    }
    EXPECT_GT(loaded, 0) << spec.name << ": no mutant reached verify_design";
  }
}

// --- deterministic JSON ------------------------------------------------------

TEST(VerifyReportTest, JsonIsByteIdenticalAcrossSweepThreads) {
  const auto spec = dfc::core::make_usps_preset().compile_spec();
  ::setenv("DFCNN_SWEEP_THREADS", "1", 1);
  const std::string a = verify_design(spec).to_json();
  ::setenv("DFCNN_SWEEP_THREADS", "8", 1);
  const std::string b = verify_design(spec).to_json();
  ::unsetenv("DFCNN_SWEEP_THREADS");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"clean\": true"), std::string::npos);
}

TEST(VerifyReportTest, ReportAccessorsAndThrow) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).weights.pop_back();
  const auto r = verify_design(spec);
  EXPECT_GE(r.errors(), 1u);
  EXPECT_FALSE(r.clean());
  try {
    r.throw_if_errors();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF103);
  }
  // A clean report does not throw.
  verify_design(tiny_spec()).throw_if_errors();
}

TEST(VerifyReportTest, UnbuildableOptionsAreReportedNotThrown) {
  // Options the builders refuse never escape verify as exceptions.
  BuildOptions no_stream;
  no_stream.stream_fifo_capacity = 0;
  BuildOptions no_window;
  no_window.window_fifo_capacity = 0;
  BuildOptions no_dma;
  no_dma.dma_cycles_per_word = 0;
  BuildOptions no_link;
  no_link.link = dfc::core::LinkModel{0, 0};
  no_link.layer_device = {0, 1, 1};
  const std::vector<std::size_t> cut{0, 1, 1};
  for (const BuildOptions& opts : {no_stream, no_window, no_dma, no_link}) {
    VerifyReport single;
    ASSERT_NO_THROW(single = verify_design(tiny_pipeline(), opts));
    EXPECT_FALSE(single.clean()) << single.render();
    VerifyReport multi;
    ASSERT_NO_THROW(multi = verify_design_multi(tiny_pipeline(), cut, opts));
    EXPECT_FALSE(multi.clean()) << multi.render();
  }
  VerifyReport negative;
  ASSERT_NO_THROW(negative = verify_design_multi(tiny_pipeline(), cut, {}, /*link_credits=*/-1));
  EXPECT_TRUE(negative.has(Code::DF203));
  EXPECT_FALSE(negative.clean());
}

// --- promoted construction-path diagnostics ----------------------------------

TEST(VerifyPromotionTest, AdapterDivisibilityThrowsStructured) {
  SimContext ctx;
  std::vector<Fifo<Flit>*> streams{&ctx.add_fifo<Flit>("a", 4), &ctx.add_fifo<Flit>("b", 4)};
  try {
    dfc::core::adapt_stream_ports(ctx, "L0", std::move(streams), 6, 3, 4);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF102);
    EXPECT_EQ(e.diagnostics()[0].entity, "L0");
  }
}

TEST(VerifyPromotionTest, BuilderPartitionCoverageThrowsStructured) {
  BuildOptions opts;
  opts.layer_device = {0};  // tiny_pipeline has 3 layers
  try {
    dfc::core::build_accelerator(tiny_pipeline(), opts);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
}

TEST(VerifyPromotionTest, ExecutorPartitionThrowsStructured) {
  try {
    dfc::mfpga::build_multi_fpga(tiny_pipeline(), {1, 0, 0}, {});
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
  try {
    dfc::mfpga::build_multi_fpga(tiny_pipeline(), {0, 1}, {});
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
  NetworkSpec bad_classifier = tiny_pipeline();
  std::get<FcnLayerSpec>(bad_classifier.layers[2]).in_count = 7;
  try {
    dfc::mfpga::build_multi_fpga(bad_classifier, {0, 0, 1}, {});
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF105);
  }
}

// --- builds collect every spec error ----------------------------------------

TEST(VerifyPreflightTest, CollectsEveryErrorBeforeBuilding) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.weights.pop_back();
  conv.biases.pop_back();
  try {
    dfc::core::build_accelerator(spec);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u) << "both DF103 findings, not just the first";
    for (const auto& d : e.diagnostics()) EXPECT_EQ(d.code, Code::DF103);
  }
}

}  // namespace
}  // namespace dfc::verify
