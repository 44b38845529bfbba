// Cluster-scale serving: offered rate x routing policy across a 4-node fleet.
//
// The fleet counterpart of bench_serve_load: the same open-loop saturation
// sweep, but through the front-end load balancer, per-node network hops,
// autoscaling replica pools and SLO-aware admission. One node hosts a
// two-board multifpga replica, so the measured service tables carry
// interlink timing into the cluster planner (ISSUE 10 satellite).
//
// Expected shapes:
//   * sustained throughput saturates past fleet capacity while offered keeps
//     rising, and overload is absorbed by deadline shedding, not blocking;
//   * least-loaded >= round-robin sustained rate under heterogeneous nodes
//     (the 2-board node has different service times than the 1-board nodes);
//   * interactive p99 stays below the 250 us SLO at light load and the
//     tightest class sheds first at overload;
//   * the whole grid is deterministic (two runs byte-agree), gating CI.
//
// A node sweep then plans the same fleet at 4, 64, 256 and 1024 nodes with
// the same per-node offered rate and reports planner host cost per planned
// request and per request x node: the event loop only visits nodes with a
// due event, so cost per request stays roughly flat as the fleet grows.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/service_table.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "report/sweep_runner.hpp"
#include "serve/load_generator.hpp"

namespace {

// Weights and capacity must come from the MEASURED tables: the 2-board
// node's batch time carries real interlink serialization, so it is a
// slower replica than the single-board nodes, not a faster one.
dfc::cluster::ClusterConfig fleet_config(dfc::cluster::RoutePolicy policy,
                                         const std::vector<std::uint64_t>& table1,
                                         const std::vector<std::uint64_t>& table2,
                                         std::size_t max_batch, std::size_t nodes = 4) {
  using namespace dfc;
  cluster::ClusterConfig config;
  config.policy = policy;
  config.batcher.max_batch_size = max_batch;
  config.batcher.max_wait_cycles = table1[max_batch - 1];
  config.classes = cluster::default_deadline_classes();
  config.autoscaler.enabled = true;
  config.autoscaler.max_replicas = 4;
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster::NodeConfig node;
    node.boards = i == 0 ? 2 : 1;
    const auto& table = node.boards == 2 ? table2 : table1;
    // Capacity-proportional weight, 4 = a full-speed single-board replica.
    node.weight = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, (4 * table1[max_batch - 1] + table[max_batch - 1] / 2) / table[max_batch - 1]));
    node.replicas = 2;
    node.ingress.link.link = core::LinkModel{200, 1};
    node.egress.link.link = core::LinkModel{200, 1};
    config.nodes.push_back(node);
  }
  return config;
}

}  // namespace

int main() {
  using namespace dfc;

  const core::NetworkSpec spec = core::make_usps_spec();
  constexpr std::size_t kRequests = 12'000;
  constexpr std::size_t kMaxBatch = 8;

  // Service tables are the expensive part; measure each boards count once on
  // the compiled-schedule fast path and share them across the whole grid.
  core::BuildOptions compiled;
  compiled.execution_mode = core::ExecutionMode::kCompiledSchedule;
  const auto t0 = std::chrono::steady_clock::now();
  const auto table1 = cluster::measure_service_table(spec, 1, kMaxBatch, {}, compiled);
  const auto table2 = cluster::measure_service_table(spec, 2, kMaxBatch, {}, compiled);
  const auto t1 = std::chrono::steady_clock::now();
  const double measure_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

  // Fleet capacity at the starting replica counts, from the measured tables:
  // node0's two 2-board replicas plus six single-board replicas, each serving
  // back-to-back full batches.
  auto replica_rps = [&](const std::vector<std::uint64_t>& table) {
    return static_cast<double>(kMaxBatch) /
           core::cycles_to_seconds(static_cast<double>(table[kMaxBatch - 1]));
  };
  const double capacity_rps = 2.0 * replica_rps(table2) + 6.0 * replica_rps(table1);

  const std::vector<cluster::RoutePolicy> policies = {
      cluster::RoutePolicy::kRoundRobin, cluster::RoutePolicy::kLeastLoaded,
      cluster::RoutePolicy::kWeighted};
  const std::vector<double> rate_multiples = {0.5, 0.8, 1.0, 1.3, 1.8};

  std::printf("=== Cluster scale: %s, 4 nodes (node0 2-board), capacity ~%.2f Mreq/s ===\n",
              spec.name.c_str(), capacity_rps / 1e6);
  std::printf("    service tables measured in %.0f ms (batch%zu: 1-board %llu cy, 2-board %llu cy)\n\n",
              measure_ms, kMaxBatch, static_cast<unsigned long long>(table1[kMaxBatch - 1]),
              static_cast<unsigned long long>(table2[kMaxBatch - 1]));

  struct Point {
    std::string policy;
    double mult = 0.0;
    cluster::ClusterStats stats;
  };
  auto run_grid = [&] {
    std::vector<std::function<Point()>> jobs;
    for (const cluster::RoutePolicy policy : policies) {
      for (const double mult : rate_multiples) {
        jobs.push_back([&spec, &table1, &table2, policy, mult, capacity_rps] {
          serve::LoadSpec load_spec;
          load_spec.arrivals = serve::ArrivalProcess::kDiurnal;
          load_spec.rate_images_per_second = mult * capacity_rps;
          load_spec.request_count = kRequests;
          load_spec.seed = 7;
          const serve::Load load = serve::generate_load(spec, load_spec);

          cluster::ClusterConfig config = fleet_config(policy, table1, table2, kMaxBatch);
          std::vector<std::vector<std::uint64_t>> tables;
          for (const cluster::NodeConfig& node : config.nodes) {
            tables.push_back(node.boards == 2 ? table2 : table1);
          }
          const auto class_of =
              cluster::assign_classes(load.requests.size(), config.classes, config.class_seed);
          auto report = cluster::plan_cluster(load.requests, class_of, config, tables);
          report.stats.policy = cluster::route_policy_name(policy);
          return Point{cluster::route_policy_name(policy), mult, report.stats};
        });
      }
    }
    return report::run_sweep<Point>(jobs);
  };
  const auto points = run_grid();
  const auto points_again = run_grid();  // determinism probe

  bool deterministic = points.size() == points_again.size();
  for (std::size_t i = 0; deterministic && i < points.size(); ++i) {
    deterministic = points[i].stats.to_json() == points_again[i].stats.to_json();
  }

  // Node sweep: the same fleet at growing size under least-loaded routing,
  // each node offered 80% of a 4-node fleet node's share of capacity. Each
  // size is planned twice: the faster run is the timing, and the two
  // reports must agree byte for byte.
  struct SweepPoint {
    std::size_t nodes = 0;
    std::size_t requests = 0;
    double plan_ms = 0.0;
    double us_per_req = 0.0;
    double ns_per_req_node = 0.0;
    bool identical = false;
  };
  std::vector<SweepPoint> sweep;
  for (const std::size_t nodes : {4, 64, 256, 1024}) {
    SweepPoint pt;
    pt.nodes = nodes;
    pt.requests = std::max<std::size_t>(32'000, 250 * nodes);
    serve::LoadSpec load_spec;
    load_spec.arrivals = serve::ArrivalProcess::kDiurnal;
    load_spec.rate_images_per_second = 0.8 * capacity_rps / 4.0 * static_cast<double>(nodes);
    load_spec.request_count = pt.requests;
    load_spec.seed = 7;
    const serve::Load load = serve::generate_load(spec, load_spec);
    const cluster::ClusterConfig config =
        fleet_config(cluster::RoutePolicy::kLeastLoaded, table1, table2, kMaxBatch, nodes);
    std::vector<std::vector<std::uint64_t>> tables;
    for (const cluster::NodeConfig& node : config.nodes) {
      tables.push_back(node.boards == 2 ? table2 : table1);
    }
    const auto class_of =
        cluster::assign_classes(load.requests.size(), config.classes, config.class_seed);
    std::string first;
    for (int run = 0; run < 2; ++run) {
      const auto s0 = std::chrono::steady_clock::now();
      const auto report = cluster::plan_cluster(load.requests, class_of, config, tables);
      const auto s1 = std::chrono::steady_clock::now();
      const double ms = std::chrono::duration<double, std::milli>(s1 - s0).count();
      pt.plan_ms = run == 0 ? ms : std::min(pt.plan_ms, ms);
      std::string bytes = report.csv() + report.stats.to_json();
      if (run == 0) {
        first = std::move(bytes);
      } else {
        pt.identical = bytes == first;
      }
    }
    pt.us_per_req = pt.plan_ms * 1e3 / static_cast<double>(pt.requests);
    pt.ns_per_req_node = pt.us_per_req * 1e3 / static_cast<double>(pt.nodes);
    deterministic = deterministic && pt.identical;
    sweep.push_back(pt);
  }

  auto us = [](std::uint64_t cycles) { return core::cycles_to_us(static_cast<double>(cycles)); };
  AsciiTable t({"policy", "rate x cap", "offered Mreq/s", "sustained Mreq/s", "shed dl",
                "shed ovf", "scale evts", "inter p99 us", "p999 us"});
  CsvWriter csv("cluster_scale_" + spec.name + ".csv",
                {"policy", "rate_multiple", "offered_rps", "sustained_rps", "completed",
                 "shed_deadline", "shed_overflow", "scale_events", "interactive_p99_us",
                 "p99_latency_us", "p999_latency_us", "makespan_cycles"});
  for (const Point& pt : points) {
    const cluster::ClusterStats& s = pt.stats;
    t.add_row({pt.policy, fmt_fixed(pt.mult, 2), fmt_fixed(s.offered_rps / 1e6, 3),
               fmt_fixed(s.sustained_rps / 1e6, 3), std::to_string(s.shed_deadline),
               std::to_string(s.shed_overflow), std::to_string(s.scale_events),
               fmt_fixed(us(s.classes[0].p99_latency_cycles), 1),
               fmt_fixed(us(s.p999_latency_cycles), 1)});
    csv.row_values(pt.policy, pt.mult, s.offered_rps, s.sustained_rps, s.completed_requests,
                   s.shed_deadline, s.shed_overflow, s.scale_events,
                   us(s.classes[0].p99_latency_cycles), us(s.p99_latency_cycles),
                   us(s.p999_latency_cycles), s.makespan_cycles);
  }
  csv.flush();
  std::printf("%s\n", t.render().c_str());

  AsciiTable sweep_table({"nodes", "requests", "plan ms", "us / req", "ns / req x node",
                          "2 runs identical"});
  for (const SweepPoint& pt : sweep) {
    sweep_table.add_row({std::to_string(pt.nodes), std::to_string(pt.requests),
                         fmt_fixed(pt.plan_ms, 1), fmt_fixed(pt.us_per_req, 3),
                         fmt_fixed(pt.ns_per_req_node, 2), pt.identical ? "yes" : "NO"});
  }
  std::printf("Node sweep (least-loaded, same per-node rate, planner host time):\n%s\n",
              sweep_table.render().c_str());

  auto stats_of = [&](const char* policy, double mult) -> const cluster::ClusterStats& {
    for (const Point& pt : points) {
      if (pt.policy == policy && pt.mult == mult) return pt.stats;
    }
    std::fprintf(stderr, "missing sweep point %s x%.2f\n", policy, mult);
    std::abort();
  };
  const auto& ll_light = stats_of("least-loaded", 0.5);
  const auto& ll_sat = stats_of("least-loaded", 1.3);
  const auto& ll_over = stats_of("least-loaded", 1.8);
  const auto& rr_over = stats_of("round-robin", 1.8);

  const double sat_ratio = ll_over.sustained_rps / ll_sat.sustained_rps;
  const bool saturates = sat_ratio < 1.15;
  const bool slo_light = us(ll_light.classes[0].p99_latency_cycles) < 250.0;
  const bool tight_first =
      ll_over.classes[0].shed_deadline >= ll_over.classes[1].shed_deadline &&
      ll_over.classes[2].shed_deadline == 0;
  const bool ll_holds = ll_over.sustained_rps >= 0.95 * rr_over.sustained_rps;

  std::printf("Shape checks:\n");
  std::printf("  throughput saturates past capacity (1.8x vs 1.3x within 15%%): %s (ratio %.3f)\n",
              saturates ? "yes" : "NO", sat_ratio);
  std::printf("  interactive p99 under 250 us SLO at 0.5x: %s (%.1f us)\n",
              slo_light ? "yes" : "NO", us(ll_light.classes[0].p99_latency_cycles));
  std::printf("  tightest class sheds first, batch never deadline-shed at 1.8x: %s "
              "(%llu/%llu/%llu)\n",
              tight_first ? "yes" : "NO",
              static_cast<unsigned long long>(ll_over.classes[0].shed_deadline),
              static_cast<unsigned long long>(ll_over.classes[1].shed_deadline),
              static_cast<unsigned long long>(ll_over.classes[2].shed_deadline));
  std::printf("  least-loaded sustains >= 95%% of round-robin at overload: %s (%.2f vs %.2f Mreq/s)\n",
              ll_holds ? "yes" : "NO", ll_over.sustained_rps / 1e6, rr_over.sustained_rps / 1e6);
  std::printf("  cost per planned request, 1024 vs 4 nodes: %.2fx\n",
              sweep.back().us_per_req / sweep.front().us_per_req);
  std::printf("  grid and node sweep deterministic across two runs: %s\n",
              deterministic ? "yes" : "NO");

  std::string sweep_json;
  for (const SweepPoint& pt : sweep) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"nodes\": %zu, \"requests\": %zu, \"us_per_req\": %.4f, "
                  "\"ns_per_req_node\": %.4f, \"identical\": %s}",
                  pt.nodes, pt.requests, pt.us_per_req, pt.ns_per_req_node,
                  pt.identical ? "true" : "false");
    sweep_json += std::string(sweep_json.empty() ? "" : ",\n") + row;
  }

  const bool ok = saturates && slo_light && tight_first && deterministic;
  if (std::FILE* json = std::fopen("BENCH_cluster.json", "w")) {
    std::fprintf(json,
                 "{\n  \"design\": \"%s\",\n  \"nodes\": 4,\n  \"max_batch\": %zu,\n"
                 "  \"max_batch_service_cycles_1board\": %llu,\n"
                 "  \"max_batch_service_cycles_2board\": %llu,\n"
                 "  \"capacity_rps\": %.1f,\n"
                 "  \"sustained_rps_ll_overload\": %.1f,\n"
                 "  \"sustained_rps_rr_overload\": %.1f,\n"
                 "  \"shed_deadline_ll_overload\": %llu,\n"
                 "  \"interactive_p99_us_light\": %.2f,\n"
                 "  \"table_measure_wall_ms\": %.1f,\n"
                 "  \"node_sweep\": [\n%s\n  ],\n"
                 "  \"deterministic\": %s\n}\n",
                 spec.name.c_str(), kMaxBatch,
                 static_cast<unsigned long long>(table1[kMaxBatch - 1]),
                 static_cast<unsigned long long>(table2[kMaxBatch - 1]), capacity_rps,
                 ll_over.sustained_rps, rr_over.sustained_rps,
                 static_cast<unsigned long long>(ll_over.shed_deadline),
                 us(ll_light.classes[0].p99_latency_cycles), measure_ms, sweep_json.c_str(),
                 deterministic ? "true" : "false");
    std::fclose(json);
  } else {
    std::fprintf(stderr, "cannot open BENCH_cluster.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
