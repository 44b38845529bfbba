// Tests for the cluster subsystem: network-hop timing and attribution,
// routing policies, deadline-class admission ordering under overload,
// autoscaler hysteresis on a step load, multi-board service tables,
// byte-determinism of the full report across DFCNN_SWEEP_THREADS, and a
// golden grid of report hashes that pins the planner's output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/net_model.hpp"
#include "cluster/service_table.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "serve/load_generator.hpp"
#include "serve/replica_pool.hpp"

namespace dfc::cluster {
namespace {

core::NetworkSpec usps_spec() { return core::make_usps_spec(3); }

// Restores DFCNN_SWEEP_THREADS on scope exit.
class ScopedSweepThreads {
 public:
  explicit ScopedSweepThreads(const char* value) {
    if (const char* old = std::getenv("DFCNN_SWEEP_THREADS")) old_ = old;
    ::setenv("DFCNN_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepThreads() {
    if (old_.empty()) {
      ::unsetenv("DFCNN_SWEEP_THREADS");
    } else {
      ::setenv("DFCNN_SWEEP_THREADS", old_.c_str(), 1);
    }
  }

 private:
  std::string old_;
};

std::vector<dfc::serve::Request> make_requests(std::size_t n, std::uint64_t gap,
                                               std::uint64_t start = 0) {
  std::vector<dfc::serve::Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dfc::serve::Request r;
    r.id = i;
    r.arrival_cycle = start + gap * i;
    out.push_back(r);
  }
  return out;
}

/// Cheap synthetic fleet: 1-word payloads (hop occupancy stays tiny), no
/// autoscaler, one best-effort class, deep queues.
ClusterConfig synth_config(std::size_t nodes, std::size_t replicas = 1) {
  ClusterConfig config;
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeConfig nc;
    nc.replicas = replicas;
    nc.queue_capacity = 8192;
    config.nodes.push_back(nc);
  }
  config.policy = RoutePolicy::kRoundRobin;
  config.batcher.max_batch_size = 1;
  config.autoscaler.enabled = false;
  config.request_words = 1;
  config.response_words = 1;
  return config;
}

/// One table per node: a size-n batch costs n * base cycles.
std::vector<std::vector<std::uint64_t>> synth_tables(std::size_t nodes, std::size_t max_batch,
                                                     std::uint64_t base) {
  std::vector<std::uint64_t> table;
  for (std::size_t n = 1; n <= max_batch; ++n) table.push_back(base * n);
  return std::vector<std::vector<std::uint64_t>>(nodes, table);
}

// --- network-hop model ---------------------------------------------------------

TEST(NetHopTest, UncreditedSerializationAndLatency) {
  HopModel model;
  model.link.link = core::LinkModel{10, 4};  // latency 10, 1 word / 4 cycles
  EXPECT_EQ(model.link.effective_cycles_per_word(), 4);  // auto credits never throttle

  NetHop hop("h", model);
  // 4 words: first at the raw rate, rest at the (equal) effective rate.
  EXPECT_EQ(hop.transfer(0, 4), 16u + 10u);
  EXPECT_EQ(hop.busy_until(), 16u);
  const obs::LinkActivity a = hop.activity(100);
  EXPECT_EQ(a.wire_busy, 16u);
  EXPECT_EQ(a.credit_stall, 0u);
  EXPECT_EQ(a.idle, 84u);
  EXPECT_EQ(a.total(), 100u);
}

TEST(NetHopTest, CreditWindowThrottlesSustainedRate) {
  HopModel model;
  model.link.link = core::LinkModel{10, 1};
  model.link.credits = 4;  // round trip 20 / 4 credits -> 1 word per 5 cycles
  EXPECT_EQ(model.link.effective_cycles_per_word(), 5);

  NetHop hop("h", model);
  // occupancy = 1 + 3 * 5 = 16; delivery adds the flight latency.
  EXPECT_EQ(hop.transfer(0, 4), 16u + 10u);
  const obs::LinkActivity a = hop.activity(16);
  EXPECT_EQ(a.wire_busy, 4u);       // 4 words at the raw serializer rate
  EXPECT_EQ(a.credit_stall, 12u);   // the rest is the credit window's fault
  EXPECT_EQ(a.idle, 0u);
  EXPECT_EQ(a.total(), 16u);
}

TEST(NetHopTest, FifoOccupancyQueuesTransfers) {
  HopModel model;
  model.link.link = core::LinkModel{5, 2};
  NetHop hop("h", model);
  EXPECT_EQ(hop.transfer(0, 3), 6u + 5u);   // busy until 6
  EXPECT_EQ(hop.transfer(2, 3), 12u + 5u);  // starts at 6, not 2
  EXPECT_EQ(hop.words_transferred(), 6u);
}

TEST(NetHopTest, RejectsOutOfOrderSchedules) {
  NetHop hop("h", HopModel{});
  hop.transfer(100, 1);
  EXPECT_THROW(hop.transfer(50, 1), dfc::Error);
}

// --- class assignment ----------------------------------------------------------

TEST(AssignClassesTest, DeterministicAndWeighted) {
  const std::vector<DeadlineClass> classes = {{"a", 0, 1}, {"b", 0, 3}};
  const auto c1 = assign_classes(4000, classes, 5);
  const auto c2 = assign_classes(4000, classes, 5);
  EXPECT_EQ(c1, c2);
  const auto c3 = assign_classes(4000, classes, 6);
  EXPECT_NE(c1, c3);
  std::size_t b = 0;
  for (const std::size_t c : c1) b += c;
  // Weight 3/4 of the traffic goes to class b (binomial, wide tolerance).
  EXPECT_GT(b, 4000u * 6 / 10);
  EXPECT_LT(b, 4000u * 9 / 10);
}

TEST(AssignClassesTest, EmptyOrSingleClassIsAllZeros) {
  EXPECT_EQ(assign_classes(8, {}, 7), std::vector<std::size_t>(8, 0));
  EXPECT_EQ(assign_classes(8, {DeadlineClass{}}, 7), std::vector<std::size_t>(8, 0));
}

// --- routing policies ----------------------------------------------------------

TEST(RoutingTest, RoundRobinSplitsEvenly) {
  const auto requests = make_requests(8, 1000);
  const ClusterConfig config = synth_config(2);
  const auto report = plan_cluster(requests, std::vector<std::size_t>(8, 0), config,
                                   synth_tables(2, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 4u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 4u);
  EXPECT_EQ(report.stats.completed_requests, 8u);
}

TEST(RoutingTest, LeastLoadedSpreadsASimultaneousBurst) {
  // All 10 requests arrive in the same cycle: only the in-flight gauge can
  // tell the nodes apart, so reading it at each pick spreads the burst 5/5.
  const auto requests = make_requests(10, 0);
  ClusterConfig config = synth_config(2);
  config.policy = RoutePolicy::kLeastLoaded;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(10, 0), config,
                                   synth_tables(2, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 5u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 5u);
}

TEST(RoutingTest, WeightedFollowsNodeWeights) {
  const auto requests = make_requests(8, 1000);
  ClusterConfig config = synth_config(3);
  config.policy = RoutePolicy::kWeighted;
  config.nodes[0].weight = 2;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(8, 0), config,
                                   synth_tables(3, 1, 500));
  EXPECT_EQ(report.stats.node_stats[0].routed, 4u);
  EXPECT_EQ(report.stats.node_stats[1].routed, 2u);
  EXPECT_EQ(report.stats.node_stats[2].routed, 2u);
}

// --- timeline invariants -------------------------------------------------------

TEST(PlanClusterTest, HopLatencyAndAttributionInvariants) {
  const auto requests = make_requests(64, 600);
  ClusterConfig config = synth_config(2);
  config.request_words = 4;
  config.response_words = 4;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(64, 0), config,
                                   synth_tables(2, 1, 500));

  const auto latency =
      static_cast<std::uint64_t>(config.nodes[0].ingress.link.link.latency_cycles);
  for (const ClusterOutcome& o : report.outcomes) {
    ASSERT_EQ(o.shed, ClusterOutcome::Shed::kNone);
    EXPECT_GE(o.delivery_cycle, o.arrival_cycle + latency);
    EXPECT_GE(o.dispatch_cycle, o.delivery_cycle);
    EXPECT_EQ(o.completion_cycle - o.dispatch_cycle, 500u);
    EXPECT_GE(o.response_cycle, o.completion_cycle + latency);
  }
  for (const NodeStats& ns : report.stats.node_stats) {
    // Buckets sum exactly to the attribution window (the makespan), and the
    // words match the routed/completed payloads — the interlink contract.
    EXPECT_EQ(ns.ingress.activity.total(), report.stats.makespan_cycles);
    EXPECT_EQ(ns.egress.activity.total(), report.stats.makespan_cycles);
    EXPECT_EQ(ns.ingress.words, ns.routed * config.request_words);
    EXPECT_EQ(ns.egress.words, ns.completed * config.response_words);
    EXPECT_EQ(ns.ingress.activity.wire_busy,
              ns.ingress.words * static_cast<std::uint64_t>(
                                     config.nodes[0].ingress.link.link.cycles_per_word));
  }
}

TEST(PlanClusterTest, CreditStarvedHopsShowCreditStall) {
  const auto requests = make_requests(32, 100);
  ClusterConfig config = synth_config(1);
  config.request_words = 8;
  config.nodes[0].ingress.link.link = core::LinkModel{20, 1};
  config.nodes[0].ingress.link.credits = 1;  // 1 word per 40 cycles sustained
  const auto report = plan_cluster(requests, std::vector<std::size_t>(32, 0), config,
                                   synth_tables(1, 1, 50));
  const HopStats& in = report.stats.node_stats[0].ingress;
  EXPECT_GT(in.activity.credit_stall, 0u);
  EXPECT_EQ(in.activity.total(), report.stats.makespan_cycles);
}

TEST(PlanClusterTest, RejectsUnmeasuredTable) {
  const auto requests = make_requests(4, 100);
  ClusterConfig config = synth_config(1);
  config.batcher.max_batch_size = 4;
  EXPECT_THROW(plan_cluster(requests, std::vector<std::size_t>(4, 0), config,
                            {std::vector<std::uint64_t>{500, 900, 0, 1500}}),
               dfc::Error);
}

// --- SLO admission -------------------------------------------------------------

TEST(AdmissionTest, DeadlineClassesShedTightestFirstUnderOverload) {
  // One replica at 1000 cycles/request fed every 100 cycles: the backlog
  // grows ~900 cycles per arrival, so the 3k-cycle class busts first, the
  // 30k class later, and best-effort never deadline-sheds.
  const std::size_t n = 600;
  const auto requests = make_requests(n, 100);
  std::vector<std::size_t> class_of(n);
  for (std::size_t i = 0; i < n; ++i) class_of[i] = i % 3;
  ClusterConfig config = synth_config(1);
  config.classes = {{"tight", 3'000, 1}, {"mid", 30'000, 1}, {"loose", 0, 1}};
  const auto report =
      plan_cluster(requests, class_of, config, synth_tables(1, 1, 1000));

  const ClassStats& tight = report.stats.classes[0];
  const ClassStats& mid = report.stats.classes[1];
  const ClassStats& loose = report.stats.classes[2];
  EXPECT_EQ(tight.shed_overflow + mid.shed_overflow + loose.shed_overflow, 0u);
  EXPECT_GT(tight.shed_deadline, 0u);
  EXPECT_GT(mid.shed_deadline, 0u);
  EXPECT_EQ(loose.shed_deadline, 0u);
  const double tight_frac =
      static_cast<double>(tight.shed_deadline) / static_cast<double>(tight.offered);
  const double mid_frac =
      static_cast<double>(mid.shed_deadline) / static_cast<double>(mid.offered);
  EXPECT_GT(tight_frac, mid_frac);
  EXPECT_EQ(report.stats.shed_deadline, tight.shed_deadline + mid.shed_deadline);
}

TEST(AdmissionTest, QueueOverflowShedsWhenCapacityIsTiny) {
  const auto requests = make_requests(64, 10);
  ClusterConfig config = synth_config(1);
  config.nodes[0].queue_capacity = 2;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(64, 0), config,
                                   synth_tables(1, 1, 10'000));
  EXPECT_GT(report.stats.shed_overflow, 0u);
  EXPECT_EQ(report.stats.shed_deadline, 0u);
  EXPECT_EQ(report.stats.completed_requests + report.stats.shed_overflow, 64u);
}

// --- autoscaler ----------------------------------------------------------------

TEST(AutoscalerTest, StepLoadScalesUpOnceWithoutThrash) {
  // Permanent overload at max scale: every scale-up is justified, and no
  // scale-down may fire while arrivals continue — so per node every +1
  // event must precede every -1 event (no up/down/up thrash train).
  const std::size_t n = 2000;
  const auto requests = make_requests(n, 150);
  ClusterConfig config = synth_config(1);
  config.autoscaler.enabled = true;
  config.autoscaler.max_replicas = 4;
  config.autoscaler.eval_interval_cycles = 5'000;
  config.autoscaler.warmup_cycles = 20'000;
  config.autoscaler.cooldown_cycles = 10'000;
  config.autoscaler.scale_up_depth = 4.0;
  config.autoscaler.scale_down_depth = 0.5;
  const auto report =
      plan_cluster(requests, std::vector<std::size_t>(n, 0), config, synth_tables(1, 1, 1000));

  const NodeStats& node = report.stats.node_stats[0];
  EXPECT_EQ(node.scale_ups, 3u);  // 1 -> 4, each step gated by the cooldown
  EXPECT_EQ(node.replicas_peak, 4u);
  bool saw_down = false;
  for (const ScaleEvent& ev : report.scale_events) {
    if (ev.delta < 0) saw_down = true;
    EXPECT_FALSE(saw_down && ev.delta > 0) << "scale-up after a scale-down: thrash";
  }
  EXPECT_EQ(report.stats.scale_events, report.scale_events.size());
  EXPECT_EQ(report.stats.completed_requests, n);  // overload queues, never drops
}

TEST(AutoscalerTest, SteadyLightLoadNeverScales) {
  const auto requests = make_requests(500, 2'000);  // far below one replica's capacity
  ClusterConfig config = synth_config(1);
  config.autoscaler.enabled = true;
  const auto report = plan_cluster(requests, std::vector<std::size_t>(500, 0), config,
                                   synth_tables(1, 1, 1000));
  EXPECT_EQ(report.stats.scale_events, 0u);
  EXPECT_EQ(report.stats.node_stats[0].replicas_peak, 1u);
}

// --- measured service tables ---------------------------------------------------

TEST(ServiceTableTest, MultiBoardTablesPriceTheInterlink) {
  const auto spec = usps_spec();
  const auto single = measure_service_table(spec, 1, 2);
  ASSERT_EQ(single.size(), 2u);
  EXPECT_GT(single[0], 0u);
  EXPECT_GE(single[1], single[0]);

  core::InterLinkModel fast;  // default: 1 word / 4 cycles, latency 40
  const auto two_fast = measure_service_table(spec, 2, 2, fast);
  core::InterLinkModel slow;
  slow.link = core::LinkModel{40, 16};
  const auto two_slow = measure_service_table(spec, 2, 2, slow);
  // The partitioned pipeline's batch time moves with link bandwidth — the
  // serve planner now sees interlink timing in its service tables.
  EXPECT_GT(two_slow[0], two_fast[0]);
  EXPECT_NE(two_fast[0], single[0]);
}

/// Per-size reference: every batch size on its own freshly built harness,
/// partitioned and linked as measure_service_table does.
std::vector<std::uint64_t> fresh_harness_table(const core::NetworkSpec& spec,
                                               std::size_t boards, std::size_t max_batch,
                                               const core::InterLinkModel& link,
                                               const core::BuildOptions& options) {
  const auto images = report::random_images(spec, max_batch);
  mfpga::MultiFpgaPlan plan;
  core::BuildOptions opts = options;
  if (boards > 1) {
    plan = mfpga::partition_network_exact(spec, boards, link.link, link.credits);
    opts.link = link.link;
  }
  std::vector<std::uint64_t> table;
  for (std::size_t n = 1; n <= max_batch; ++n) {
    const std::vector<Tensor> batch(images.begin(), images.begin() + n);
    core::BatchResult res;
    if (boards == 1) {
      core::AcceleratorHarness harness(core::build_accelerator(spec, opts));
      res = harness.run_batch(batch);
    } else {
      mfpga::MultiFpgaHarness harness(
          mfpga::build_multi_fpga(spec, plan.layer_device, opts, link.credits));
      res = harness.run_batch(batch);
    }
    EXPECT_TRUE(res.ok()) << res.error;
    table.push_back(res.total_cycles());
  }
  return table;
}

struct TableCase {
  core::NetworkSpec spec;
  std::size_t boards;
};

// TC1 on 1-4 boards and TC2 on 1-2 boards.
std::vector<TableCase> table_cases() {
  return {{core::make_usps_spec(1), 1},  {core::make_usps_spec(1), 2},
          {core::make_usps_spec(1), 3},  {core::make_usps_spec(1), 4},
          {core::make_cifar_spec(2), 1}, {core::make_cifar_spec(2), 2}};
}

void expect_one_run_table_matches_fresh_harnesses(const TableCase& c,
                                                  const core::InterLinkModel& link,
                                                  const core::BuildOptions& options = {}) {
  SCOPED_TRACE(c.spec.name + " on " + std::to_string(c.boards) + " boards, link {" +
               std::to_string(link.link.latency_cycles) + ", " +
               std::to_string(link.link.cycles_per_word) + "}, credits " +
               std::to_string(link.credits) +
               (options.dma_shared_bus ? "" : ", private DMA bus"));
  constexpr std::size_t kMaxBatch = 16;
  EXPECT_EQ(measure_service_table(c.spec, c.boards, kMaxBatch, link, options),
            fresh_harness_table(c.spec, c.boards, kMaxBatch, link, options));
}

TEST(ServiceTableTest, OneRunTableMatchesFreshHarnessPerBatchSize) {
  const core::InterLinkModel link{core::LinkModel{40, 4}, 0};
  for (const TableCase& c : table_cases()) expect_one_run_table_matches_fresh_harnesses(c, link);
}

// The prefix argument must hold for every multi-board timing knob: a private
// DMA bus, a link-bound serializer, a one-credit window and the fleet's
// long-latency hop used as a board link.
void expect_multi_board_tables_match_fresh_harnesses(const core::InterLinkModel& link,
                                                     const core::BuildOptions& options = {}) {
  for (const TableCase& c : table_cases()) {
    if (c.boards > 1) expect_one_run_table_matches_fresh_harnesses(c, link, options);
  }
}

TEST(ServiceTableTest, OneRunTableMatchesFreshHarnessesOnPrivateDmaBus) {
  core::BuildOptions private_bus;
  private_bus.dma_shared_bus = false;
  expect_multi_board_tables_match_fresh_harnesses({}, private_bus);
}

TEST(ServiceTableTest, OneRunTableMatchesFreshHarnessesOnLinkBoundSerializer) {
  expect_multi_board_tables_match_fresh_harnesses({core::LinkModel{40, 16}, 0});
}

TEST(ServiceTableTest, OneRunTableMatchesFreshHarnessesWithOneCredit) {
  expect_multi_board_tables_match_fresh_harnesses({core::LinkModel{40, 4}, 1});
}

TEST(ServiceTableTest, OneRunTableMatchesFreshHarnessesOverFleetHopLink) {
  expect_multi_board_tables_match_fresh_harnesses({core::LinkModel{200, 1}, 0});
}

TEST(ServiceTableTest, SingleBoardTableEqualsReplicaPoolServiceCycles) {
  // serve and cluster price a one-board replica identically.
  for (const core::NetworkSpec& spec : {core::make_usps_spec(1), core::make_cifar_spec(2)}) {
    const auto table = measure_service_table(spec, 1, 16);
    serve::ReplicaPool pool(spec, 1);
    for (std::size_t n = 1; n <= table.size(); ++n) {
      EXPECT_EQ(table[n - 1], pool.service_cycles(n)) << spec.name << " batch " << n;
    }
  }
}

// --- end-to-end determinism ----------------------------------------------------

TEST(ClusterDeterminismTest, ReportBytesIdenticalAcrossSweepThreads) {
  const auto spec = usps_spec();
  ClusterConfig config;
  NodeConfig multi;
  multi.boards = 2;
  multi.replicas = 1;
  NodeConfig single;
  single.replicas = 1;
  config.nodes = {multi, single};
  config.policy = RoutePolicy::kLeastLoaded;
  config.batcher.max_batch_size = 4;
  config.classes = default_deadline_classes();
  config.autoscaler.enabled = true;
  config.autoscaler.max_replicas = 3;

  dfc::serve::LoadSpec load_spec;
  load_spec.arrivals = dfc::serve::ArrivalProcess::kDiurnal;
  load_spec.rate_images_per_second = 500'000.0;
  load_spec.request_count = 1'500;
  load_spec.distinct_images = 4;
  const dfc::serve::Load load = dfc::serve::generate_load(spec, load_spec);

  auto run_once = [&] {
    Cluster fleet(spec, config);
    return fleet.run(load, "determinism", "diurnal");
  };
  std::string csv1, csv4, json1, json4;
  {
    ScopedSweepThreads threads("1");
    const auto report = run_once();
    csv1 = report.csv();
    json1 = report.stats.to_json();
    EXPECT_GT(report.stats.completed_requests, 0u);
  }
  {
    ScopedSweepThreads threads("4");
    const auto report = run_once();
    csv4 = report.csv();
    json4 = report.stats.to_json();
  }
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(json1, json4);
}

// --- golden grid ---------------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Bursty arrivals for a `nodes`-node fleet at ~1.3x its starting capacity:
/// integer-only (1/1024-cycle fixed point), so the load is the same on every
/// platform; one request in 64 opens a 16-request same-cycle burst.
std::vector<dfc::serve::Request> golden_requests(std::size_t nodes) {
  const std::size_t n = std::min<std::size_t>(400 * nodes, 4'000);
  const std::uint64_t mean_gap_fp = 1024 * 82 / nodes;
  Rng rng(1'234 + nodes);
  std::vector<dfc::serve::Request> out(n);
  std::uint64_t clock_fp = 0;
  std::size_t burst_left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (burst_left > 0) {
      --burst_left;
    } else {
      clock_fp += rng.next_below(2 * mean_gap_fp + 1);
      if (rng.next_below(64) == 0) burst_left = 15;
    }
    out[i].id = i;
    out[i].arrival_cycle = clock_fp >> 10;
  }
  return out;
}

/// A mixed fleet: every third node serves from 2-board replicas (a flatter,
/// slower table), replica counts alternate 2/1, weights cycle 1..3, and the
/// queues are shallow enough that bursts overflow them.
ClusterConfig golden_config(std::size_t nodes, RoutePolicy policy, bool autoscale,
                            std::size_t class_count) {
  ClusterConfig config;
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeConfig nc;
    nc.boards = i % 3 == 2 ? 2 : 1;
    nc.replicas = i % 2 == 0 ? 2 : 1;
    nc.queue_capacity = 6;
    nc.weight = static_cast<std::uint32_t>(1 + i % 3);
    config.nodes.push_back(nc);
  }
  config.policy = policy;
  config.batcher.max_batch_size = 4;
  config.batcher.max_wait_cycles = 600;
  config.request_words = 2;
  config.response_words = 2;
  config.autoscaler.enabled = autoscale;
  config.autoscaler.max_replicas = 4;
  config.autoscaler.scale_up_depth = 2.0;
  config.autoscaler.scale_down_depth = 0.5;
  config.autoscaler.eval_interval_cycles = 500;
  config.autoscaler.warmup_cycles = 1'500;
  config.autoscaler.cooldown_cycles = 1'000;
  if (class_count == 3) {
    config.classes = {{"tight", 1'500, 3}, {"standard", 2'500, 5}, {"batch", 0, 2}};
  }
  return config;
}

std::vector<std::vector<std::uint64_t>> golden_tables(const ClusterConfig& config) {
  const std::vector<std::uint64_t> one_board = {400, 550, 700, 850};
  const std::vector<std::uint64_t> two_board = {700, 800, 900, 1'000};
  std::vector<std::vector<std::uint64_t>> tables;
  for (const NodeConfig& nc : config.nodes) {
    tables.push_back(nc.boards == 2 ? two_board : one_board);
  }
  return tables;
}

// Pins every byte the planner produces across policies x autoscaler x
// deadline classes x fleet size. The hashes were captured from the original
// scan-every-node event loop; any rewrite of the loop must reproduce them.
TEST(ClusterGoldenTest, ReportHashesPinnedAcrossPolicyAutoscalerClassesAndFleetSize) {
  struct Golden {
    RoutePolicy policy;
    bool autoscale;
    std::size_t classes;
    std::size_t nodes;
    std::uint64_t hash;
  };
  const std::vector<Golden> grid = {
      {RoutePolicy::kRoundRobin, false, 1, 1, 0x30b5590295e004deULL},
      {RoutePolicy::kRoundRobin, false, 1, 5, 0xa76f685ffac0c7fdULL},
      {RoutePolicy::kRoundRobin, false, 1, 300, 0x21cc4013a3fa4051ULL},
      {RoutePolicy::kRoundRobin, false, 3, 1, 0xa5fcc7f1ef62e4d0ULL},
      {RoutePolicy::kRoundRobin, false, 3, 5, 0x7805e9a16c07fcfeULL},
      {RoutePolicy::kRoundRobin, false, 3, 300, 0x2cb0934644f63772ULL},
      {RoutePolicy::kRoundRobin, true, 1, 1, 0x44fe1025c99cd557ULL},
      {RoutePolicy::kRoundRobin, true, 1, 5, 0xac635d740492d84fULL},
      {RoutePolicy::kRoundRobin, true, 1, 300, 0x740a58f10fafa04aULL},
      {RoutePolicy::kRoundRobin, true, 3, 1, 0xc09fb79cfa4b5264ULL},
      {RoutePolicy::kRoundRobin, true, 3, 5, 0xa15258e3b70fd953ULL},
      {RoutePolicy::kRoundRobin, true, 3, 300, 0xa5460df8c4f622acULL},
      {RoutePolicy::kLeastLoaded, false, 1, 1, 0x5b5d97b3e20c92c4ULL},
      {RoutePolicy::kLeastLoaded, false, 1, 5, 0xdb0f3fc9ad6390e4ULL},
      {RoutePolicy::kLeastLoaded, false, 1, 300, 0x0bbbf0a9d1ddbb61ULL},
      {RoutePolicy::kLeastLoaded, false, 3, 1, 0xdaa22b1d74498498ULL},
      {RoutePolicy::kLeastLoaded, false, 3, 5, 0x9cb152762190775cULL},
      {RoutePolicy::kLeastLoaded, false, 3, 300, 0x299787f3f3061be3ULL},
      {RoutePolicy::kLeastLoaded, true, 1, 1, 0x6d15c8e8aa327e27ULL},
      {RoutePolicy::kLeastLoaded, true, 1, 5, 0x17b9de4141665675ULL},
      {RoutePolicy::kLeastLoaded, true, 1, 300, 0xe828b39e7117cdb4ULL},
      {RoutePolicy::kLeastLoaded, true, 3, 1, 0xfb48340a1ca3b696ULL},
      {RoutePolicy::kLeastLoaded, true, 3, 5, 0xc8440a399add9c2aULL},
      {RoutePolicy::kLeastLoaded, true, 3, 300, 0x3fc1f069caf8496dULL},
      {RoutePolicy::kWeighted, false, 1, 1, 0xbccce3cbaa21c838ULL},
      {RoutePolicy::kWeighted, false, 1, 5, 0xab12416b511be02cULL},
      {RoutePolicy::kWeighted, false, 1, 300, 0x56bc34c2c73203f0ULL},
      {RoutePolicy::kWeighted, false, 3, 1, 0x1d150b1ed6d16b00ULL},
      {RoutePolicy::kWeighted, false, 3, 5, 0xecc80fd5efb7b8b4ULL},
      {RoutePolicy::kWeighted, false, 3, 300, 0x07fb968ce2aed4c1ULL},
      {RoutePolicy::kWeighted, true, 1, 1, 0x7c2bfffdce0ddc67ULL},
      {RoutePolicy::kWeighted, true, 1, 5, 0x346609cb5ed853a0ULL},
      {RoutePolicy::kWeighted, true, 1, 300, 0x2c4755a264c51e31ULL},
      {RoutePolicy::kWeighted, true, 3, 1, 0x34a99f37bb40c14aULL},
      {RoutePolicy::kWeighted, true, 3, 5, 0xbe1ec6285a3a5174ULL},
      {RoutePolicy::kWeighted, true, 3, 300, 0x650db74bdb14b3fbULL},
  };
  bool overflowed = false;
  bool deadline_shed = false;
  bool scaled = false;
  for (const Golden& g : grid) {
    const auto requests = golden_requests(g.nodes);
    const ClusterConfig config = golden_config(g.nodes, g.policy, g.autoscale, g.classes);
    const auto class_of = assign_classes(requests.size(), config.classes, config.class_seed);
    const ClusterReport report = plan_cluster(requests, class_of, config, golden_tables(config));
    std::uint64_t hash = fnv1a(report.csv());
    hash = fnv1a(report.stats.to_json(), hash);
    for (const ScaleEvent& ev : report.scale_events) {
      hash = fnv1a(std::to_string(ev.cycle) + ":" + std::to_string(ev.node) + ":" +
                       std::to_string(ev.delta) + ":" + std::to_string(ev.replicas_after) + ";",
                   hash);
    }
    EXPECT_EQ(hash, g.hash) << route_policy_name(g.policy) << " autoscale=" << g.autoscale
                            << " classes=" << g.classes << " nodes=" << g.nodes << " actual 0x"
                            << std::hex << hash;
    overflowed = overflowed || report.stats.shed_overflow > 0;
    deadline_shed = deadline_shed || report.stats.shed_deadline > 0;
    scaled = scaled || !report.scale_events.empty();
  }
  // The grid must reach every admission and autoscaler path it pins.
  EXPECT_TRUE(overflowed);
  EXPECT_TRUE(deadline_shed);
  EXPECT_TRUE(scaled);
}

}  // namespace
}  // namespace dfc::cluster
