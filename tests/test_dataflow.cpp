// Unit tests for the simulation kernel: registered FIFO semantics, the
// copy-free token hop, two-phase scheduling, backpressure, deadlock
// detection and end-to-end pipelines.
#include <gtest/gtest.h>

#include <array>
#include <deque>

#include "axis/flit.hpp"
#include "dataflow/endpoints.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/sim_context.hpp"
#include "sst/window_buffer.hpp"

namespace dfc::df {
namespace {

std::vector<int> iota_tokens(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(FifoTest, PushVisibleOnlyAfterCommit) {
  Fifo<int> f("f", 4);
  ASSERT_TRUE(f.can_push());
  f.push(42);
  EXPECT_FALSE(f.can_pop());  // registered handshake: not visible this cycle
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), 42);
}

TEST(FifoTest, SinglePushAndPopPerCycle) {
  Fifo<int> f("f", 4);
  f.push(1);
  EXPECT_FALSE(f.can_push());  // one write port
  f.commit();
  f.push(2);
  f.commit();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());  // one read port
  f.commit();
  EXPECT_EQ(f.pop(), 2);
}

TEST(FifoTest, CapacityOneHalvesThroughput) {
  // A capacity-1 FIFO cannot accept a push while occupied, even if the
  // consumer pops the same cycle — like a single register with no skid
  // buffer.
  Fifo<int> f("f", 1);
  f.push(1);
  f.commit();
  EXPECT_FALSE(f.can_push());
  (void)f.pop();
  EXPECT_FALSE(f.can_push());  // pop frees the slot only at commit
  f.commit();
  EXPECT_TRUE(f.can_push());
}

TEST(FifoTest, CapacityTwoSustainsFullRate) {
  Fifo<int> f("f", 2);
  f.push(0);
  f.commit();
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(f.can_push()) << "cycle " << i;
    ASSERT_TRUE(f.can_pop()) << "cycle " << i;
    f.push(i);
    EXPECT_EQ(f.pop(), i - 1);
    f.commit();
  }
}

TEST(FifoTest, StatsTrackTraffic) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.commit();
  f.push(2);
  f.commit();
  (void)f.pop();
  f.commit();
  EXPECT_EQ(f.stats().pushes, 2u);
  EXPECT_EQ(f.stats().pops, 1u);
  EXPECT_EQ(f.stats().max_occupancy, 2u);
}

TEST(FifoTest, ResetClearsContentsNotStats) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.commit();
  f.reset();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.stats().pushes, 1u);
}

// --- The token hop: build in the tail slot, publish at commit, read in place --

/// A token large enough that a stray overwrite of its slot shows.
struct Token {
  std::array<int, 16> v{};
  bool operator==(const Token&) const = default;
};

Token make_token(int x) {
  Token t;
  t.v.fill(x);
  return t;
}

/// Rotates the empty FIFO's ring head by `rotate` slots, then fills it with
/// `fill` tokens valued 100, 101, ...
void rotate_and_fill(Fifo<Token>& f, std::size_t rotate, std::size_t fill) {
  for (std::size_t i = 0; i < rotate; ++i) {
    f.push(make_token(-1));
    f.commit();
    (void)f.pop();
    f.commit();
  }
  for (std::size_t i = 0; i < fill; ++i) {
    f.push(make_token(100 + static_cast<int>(i)));
    f.commit();
  }
}

class FifoHopCapacityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FifoHopCapacityTest, PoppedReferenceUnchangedBySameCyclePush) {
  const std::size_t cap = GetParam();
  for (std::size_t rotate = 0; rotate < cap; ++rotate) {
    for (std::size_t fill = 1; fill <= cap; ++fill) {
      Fifo<Token> f("hop", cap);
      rotate_and_fill(f, rotate, fill);
      const Token& popped = f.pop();
      ASSERT_EQ(popped, make_token(100));
      // A pop frees its slot only at commit, so a full FIFO refuses the push.
      EXPECT_EQ(f.can_push(), fill < cap) << "rotate " << rotate << " fill " << fill;
      if (f.can_push()) f.push(make_token(999));
      EXPECT_EQ(popped, make_token(100)) << "rotate " << rotate << " fill " << fill;
      f.commit();
      EXPECT_EQ(popped, make_token(100)) << "valid until the next commit";
    }
  }
}

TEST_P(FifoHopCapacityTest, PushInPopCycleNeverLandsInPoppedSlot) {
  const std::size_t cap = GetParam();
  for (std::size_t rotate = 0; rotate < cap; ++rotate) {
    for (std::size_t fill = 1; fill < cap; ++fill) {
      Fifo<Token> f("hop", cap);
      rotate_and_fill(f, rotate, fill);
      const Token* popped = &f.pop();
      const Token* built = nullptr;
      ASSERT_TRUE(f.can_push());
      f.push_with([&](Token& slot) {
        built = &slot;
        slot = make_token(999);
      });
      EXPECT_NE(built, popped) << "rotate " << rotate << " fill " << fill;
      f.commit();
      // FIFO order is intact: the rest of the fill, then the new token.
      for (std::size_t i = 1; i < fill; ++i) {
        ASSERT_TRUE(f.can_pop());
        EXPECT_EQ(f.pop(), make_token(100 + static_cast<int>(i)));
        f.commit();
      }
      ASSERT_TRUE(f.can_pop());
      EXPECT_EQ(f.pop(), make_token(999));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, FifoHopCapacityTest, ::testing::Values(1, 2, 3));

TEST(FifoHopTest, PushWithBuildsInTheTailSlotAndPublishesAtCommit) {
  Fifo<Token> f("hop", 2);
  f.push_with([](Token& slot) { slot = make_token(7); });
  EXPECT_EQ(f.size(), 1u);     // pending counts toward occupancy
  EXPECT_FALSE(f.can_pop());   // but is not visible before commit
  EXPECT_FALSE(f.can_push());  // one write port
  EXPECT_TRUE(f.commit());
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), make_token(7));
  EXPECT_EQ(f.stats().pushes, 1u);
}

/// Drives a WindowBuffer by hand: one flit offered, windows drained and both
/// FIFOs committed every cycle. Returns the windows in emission order.
std::vector<sst::Window> drain_window_buffer(const sst::WindowGeometry& g,
                                             Fifo<sst::Window>& out) {
  Fifo<axis::Flit> in("in", 2);
  sst::WindowBuffer wb("wb", g, in, out);
  const auto want = static_cast<std::size_t>(g.windows_per_image());
  const std::int64_t pixels = g.values_per_image();
  std::vector<sst::Window> got;
  std::int64_t next = 0;
  for (int cycle = 0; got.size() < want && cycle < 10'000; ++cycle) {
    if (out.can_pop()) got.push_back(out.pop());
    if (next < pixels && in.can_push()) {
      axis::Flit flit;
      flit.data = static_cast<float>(next + 1);
      in.push(flit);
      ++next;
    }
    wb.on_clock();
    in.commit();
    out.commit();
  }
  return got;
}

TEST(FifoHopTest, TapsPastCountNeverLeakIntoWindowsBuiltInPlace) {
  // Every ring slot last held a full 64-tap window of 7s; the 3x3 windows
  // the buffer builds over them must read as freshly built ones.
  Fifo<sst::Window> out("win", 3);
  sst::Window wide;
  wide.count = sst::WindowGeometry::kMaxTaps;
  wide.taps.fill(7.0f);
  for (std::size_t i = 0; i < out.capacity(); ++i) {
    out.push(wide);
    out.commit();
    (void)out.pop();
    out.commit();
  }
  sst::WindowGeometry g;
  g.in_w = 5;
  g.in_h = 4;
  g.kh = g.kw = 3;
  g.pad = 1;  // padded edges take the per-tap path, interior rows one copy
  const auto windows = drain_window_buffer(g, out);
  ASSERT_EQ(windows.size(), static_cast<std::size_t>(g.windows_per_image()));
  for (const sst::Window& w : windows) {
    ASSERT_EQ(w.count, 9);
    for (int dy = 0; dy < 3; ++dy) {
      for (int dx = 0; dx < 3; ++dx) {
        const std::int64_t y = w.oy + dy;
        const std::int64_t x = w.ox + dx;
        const bool inside = y >= 0 && y < g.in_h && x >= 0 && x < g.in_w;
        EXPECT_EQ(w.tap(dy, dx, 3), inside ? static_cast<float>(y * g.in_w + x + 1) : 0.0f)
            << "window (" << w.oy << ", " << w.ox << ") tap (" << dy << ", " << dx << ")";
      }
    }
    for (std::size_t t = w.count; t < w.taps.size(); ++t) {
      EXPECT_EQ(w.taps[t], 0.0f) << "window (" << w.oy << ", " << w.ox << ") tap " << t;
    }
  }
}

TEST(SimContextTest, SourceToSinkTransfersEverythingInOrder) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(100));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 100; }, 10'000);
  (void)src;
  EXPECT_EQ(sink.tokens(), iota_tokens(100));
}

TEST(SimContextTest, ThroughputIsOneTokenPerCycleAtSteadyState) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(200));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 200; }, 10'000);
  const auto& arrivals = sink.arrival_cycles();
  for (std::size_t i = 101; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], 1u) << "at token " << i;
  }
}

TEST(SimContextTest, PipelineOfMapsAppliesInOrder) {
  SimContext ctx;
  auto& a = ctx.add_fifo<int>("a", 2);
  auto& b = ctx.add_fifo<int>("b", 2);
  auto& c = ctx.add_fifo<int>("c", 2);
  ctx.add_process<VectorSource<int>>("src", a, iota_tokens(50));
  auto dbl = [](int x) { return 2 * x; };
  auto inc = [](int x) { return x + 1; };
  ctx.add_process<MapProcess<int, int, decltype(dbl)>>("dbl", a, b, dbl);
  ctx.add_process<MapProcess<int, int, decltype(inc)>>("inc", b, c, inc);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", c);
  ctx.run_until([&] { return sink.count() == 50; }, 10'000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.tokens()[static_cast<std::size_t>(i)], 2 * i + 1);
  }
}

TEST(SimContextTest, BackpressurePropagatesWithoutLoss) {
  // A slow consumer (pops every 4th cycle) must not lose tokens.
  class SlowSink final : public Process {
   public:
    SlowSink(std::string name, Fifo<int>& in) : Process(std::move(name)), in_(in) {}
    void on_clock() override {
      if (now() % 4 != 0) return;
      if (!in_.can_pop()) return;
      got_.push_back(in_.pop());
    }
    std::vector<int> got_;

   private:
    Fifo<int>& in_;
  };

  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(40));
  auto& sink = ctx.add_process<SlowSink>("sink", f);
  ctx.run_until([&] { return sink.got_.size() == 40; }, 10'000);
  EXPECT_EQ(sink.got_, iota_tokens(40));
  EXPECT_GT(f.stats().full_stall_cycles, 0u);
}

TEST(SimContextTest, RunUntilThrowsOnCycleBudget) {
  SimContext ctx;
  ctx.add_fifo<int>("unused", 2);
  EXPECT_THROW(ctx.run_until([] { return false; }, 100), SimError);
}

TEST(SimContextTest, DeadlockDetectionFires) {
  // A consumer waiting on a channel nobody feeds: no FIFO activity at all.
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("starved", 2);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.set_idle_limit(50);
  EXPECT_THROW(ctx.run_until([&] { return sink.count() == 1; }, 1'000'000), SimError);
}

TEST(SimContextTest, ResetRestoresInitialState) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(10));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 10; }, 1'000);
  ctx.reset();
  EXPECT_EQ(ctx.cycle(), 0u);
  EXPECT_EQ(sink.count(), 0u);
  // The source replays its tokens after reset.
  ctx.run_until([&] { return sink.count() == 10; }, 1'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(10));
  (void)src;
}

TEST(SimContextTest, FifoReportListsChannels) {
  SimContext ctx;
  ctx.add_fifo<int>("alpha", 2);
  ctx.add_fifo<float>("beta", 3);
  const std::string report = ctx.fifo_report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
}

TEST(SimContextTest, OrderIndependenceOfProcessRegistration) {
  // Sink registered before source: results identical because pushes commit
  // at end of cycle.
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(30));
  ctx.run_until([&] { return sink.count() == 30; }, 10'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(30));
}

// Randomized differential test: a Fifo under arbitrary interleaved
// push/pop pressure must behave exactly like a std::queue evaluated with
// registered-handshake semantics.
class FifoRandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoRandomTraffic, MatchesQueueReferenceModel) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto rand_bit = [&](int num, int den) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<std::uint64_t>(den)) < num;
  };

  const std::size_t cap = 1 + (GetParam() % 5);
  Fifo<int> fifo("rt", cap);
  std::deque<int> model;  // committed contents
  int produced = 0;
  std::vector<int> consumed_fifo;
  std::vector<int> consumed_model;

  for (int cycle = 0; cycle < 2000; ++cycle) {
    const bool want_push = rand_bit(2, 3);
    const bool want_pop = rand_bit(1, 2);

    // Reference semantics: pop sees start-of-cycle contents; push allowed if
    // start-of-cycle occupancy < capacity.
    const std::size_t start_size = model.size();
    bool did_push = false;
    if (want_push && start_size < cap) {
      fifo.push(produced);
      did_push = true;
      EXPECT_TRUE(true);
    } else if (want_push) {
      EXPECT_FALSE(fifo.can_push()) << "cycle " << cycle;
    }
    if (want_pop && !model.empty()) {
      ASSERT_TRUE(fifo.can_pop()) << "cycle " << cycle;
      consumed_fifo.push_back(fifo.pop());
      consumed_model.push_back(model.front());
      model.pop_front();
    } else if (want_pop) {
      EXPECT_FALSE(fifo.can_pop()) << "cycle " << cycle;
    }
    if (did_push) {
      model.push_back(produced);
      ++produced;
    }
    fifo.commit();
    ASSERT_EQ(fifo.size(), model.size()) << "cycle " << cycle;
  }
  EXPECT_EQ(consumed_fifo, consumed_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoRandomTraffic, ::testing::Range<std::uint64_t>(1, 13));

TEST(JitterTest, ForwardsEverythingDespiteRandomStalls) {
  SimContext ctx;
  auto& a = ctx.add_fifo<int>("a", 2);
  auto& b = ctx.add_fifo<int>("b", 2);
  ctx.add_process<VectorSource<int>>("src", a, iota_tokens(100));
  ctx.add_process<JitterProcess<int>>("jitter", a, b, /*seed=*/0xBEEF, 0.5);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", b);
  ctx.run_until([&] { return sink.count() == 100; }, 100'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(100));
}

TEST(JitterTest, ActuallyPerturbsTiming) {
  auto run_with = [](double p) {
    SimContext ctx;
    auto& a = ctx.add_fifo<int>("a", 2);
    auto& b = ctx.add_fifo<int>("b", 2);
    ctx.add_process<VectorSource<int>>("src", a, iota_tokens(50));
    ctx.add_process<JitterProcess<int>>("jitter", a, b, 1, p);
    auto& sink = ctx.add_process<VectorSink<int>>("sink", b);
    return ctx.run_until([&] { return sink.count() == 50; }, 100'000);
  };
  EXPECT_GT(run_with(0.6), run_with(0.0));
}

TEST(OccupancyProbeTest, TracksFillLevel) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 4);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(20));

  // A consumer that only starts after cycle 10, letting the FIFO fill up.
  class LateSink final : public Process {
   public:
    LateSink(std::string name, Fifo<int>& in) : Process(std::move(name)), in_(in) {}
    void on_clock() override {
      if (now() < 10 || !in_.can_pop()) return;
      (void)in_.pop();
      ++got_;
    }
    std::size_t got_ = 0;

   private:
    Fifo<int>& in_;
  };
  auto& sink = ctx.add_process<LateSink>("late", f);
  auto& probe = ctx.add_process<OccupancyProbe>("probe", f);
  ctx.run_until([&] { return sink.got_ >= 10; }, 10'000);
  EXPECT_EQ(probe.peak(), 4u);  // filled to capacity while the sink slept
  EXPECT_GE(probe.samples().size(), 10u);
}

TEST(SimContextTest, SourceFeedAppendsMidStream) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(5));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 5; }, 1'000);
  src.feed({100, 101});
  ctx.run_until([&] { return sink.count() == 7; }, 1'000);
  EXPECT_EQ(sink.tokens()[5], 100);
  EXPECT_EQ(sink.tokens()[6], 101);
}

}  // namespace
}  // namespace dfc::df
