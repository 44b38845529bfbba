#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "cluster/cluster.hpp"
#include "cluster/service_table.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/functional_model.hpp"
#include "core/presets.hpp"
#include "dataflow/fifo.hpp"
#include "dse/throughput_model.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "serve/replica_pool.hpp"
#include "serve/server.hpp"
#include "calibration.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

using dfc::Tensor;
namespace core = dfc::core;
namespace cluster = dfc::cluster;
namespace serve = dfc::serve;
namespace mfpga = dfc::mfpga;

/// A run repeats its set-up at least kMinSetups times and until kSetupBudgetS
/// seconds went into set-up (at most kMaxSetups times); setup_s is the median.
/// Cheap set-ups thus get enough samples for a steady median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kSetupBudgetS = 1.0;
/// Set-up and the op loop each take a calibration sample before they start
/// and then after each set-up or op that brings the time since the last
/// sample to kCalibrateEveryS, so the samples cover both phases evenly.
constexpr double kCalibrateEveryS = 0.1;
/// Largest batch of every service table and batcher.
constexpr std::size_t kMaxBatch = 16;
/// Requests per fleet window.
constexpr std::size_t kWindowRequests = 50'000;

/// Per-layer metrics of a traced run, in report order. Every traced run
/// prints all of them; a layer the workload never calls reads 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayers[] = {
    {"core.harness.run_batch.self_ms", "ms"},
    {"core.harness.run_batch.ns_per_sim_cycle", "ns"},
    {"dataflow.fifo_side_effects_per_image", "count"},
    {"core.functional_model.infer.us_per_image", "us"},
    {"core.build_accelerator.ms", "ms"},
    {"core.compile_schedule.ms", "ms"},
    {"multifpga.harness.run_batch.ns_per_sim_cycle", "ns"},
    {"multifpga.link_words_per_image", "count"},
    {"cluster.measure_service_table.usps-tc1_1b.ms", "ms"},
    {"cluster.measure_service_table.usps-tc1_2b.ms", "ms"},
    {"cluster.measure_service_table.usps-tc1_3b.ms", "ms"},
    {"cluster.measure_service_table.usps-tc1_4b.ms", "ms"},
    {"cluster.measure_service_table.cifar-tc2_2b.ms", "ms"},
    {"cluster.service_table.correct_entry_ratio", "ratio"},
    {"cluster.plan_cluster.us_per_req", "us"},
    {"cluster.plan_cluster.ns_per_req_node", "ns"},
    {"serve.plan_serving.us_per_req", "us"},
    {"serve.generate_load.ms", "ms"},
    {"cluster.assign_classes.ms", "ms"},
    {"serve.ReplicaPool.warm.ms", "ms"},
    {"cluster.plan_cluster.offered", "count"},
    {"cluster.plan_cluster.completed", "count"},
    {"cluster.plan_cluster.shed", "count"},
    {"cluster.plan_cluster.batches", "count"},
    {"cluster.plan_cluster.scale_events", "count"},
    {"serve.plan_serving.offered", "count"},
    {"serve.plan_serving.completed", "count"},
    {"serve.plan_serving.shed", "count"},
    {"serve.plan_serving.batches", "count"},
    {"bench.trace_overhead_pct", "%"},
};

/// Work counted by a traced run next to its spans, plus exact planner
/// counts summed once over every distinct window.
using Counters = std::map<std::string, double>;

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed of input stream `stream`, item `index`, derived from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return splitmix(seed ^ splitmix(stream ^ splitmix(index)));
}

std::vector<Tensor> make_images(const core::NetworkSpec& spec, std::size_t count,
                                std::uint64_t seed) {
  dfc::Rng rng(seed);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}

double ms_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-6; }

/// An error's first line without the source location the library's check
/// macros prepend, so reasons and digests do not depend on the checkout path.
std::string error_summary(const std::string& what) {
  std::string line = first_line(what);
  const std::size_t dash = line.find("\xE2\x80\x94 ");  // "— "
  if (dash != std::string::npos) line = line.substr(dash + 4);
  return line;
}

class Workload {
 public:
  struct OpResult {
    double ms = 0.0;    ///< host time of the timed library call(s)
    double work = 0.0;  ///< units of correct work the op did
    std::string reason;  ///< empty when every check passed
  };

  virtual ~Workload() = default;
  /// What work_per_s counts on this workload.
  virtual const char* work_unit() const = 0;
  virtual std::size_t pass_size() const = 0;
  /// Fewest whole passes a loop runs, whatever its time budget.
  virtual std::size_t min_passes() const { return 1; }
  /// Builds everything the ops need. Called several times; the last wins.
  virtual void setup(Tracer& tr) = 0;
  /// Computes reference answers (not part of set-up time). Problems that
  /// make the run unverifiable go to `problems`.
  virtual void references(Tracer& tr, std::vector<std::string>& problems) = 0;
  virtual OpResult op(std::size_t index, Tracer& tr) = 0;
  /// Digest of the simulated outputs, independent of how many passes ran.
  virtual std::string digest() const = 0;
  const Counters& counters() const { return counters_; }

 protected:
  Counters counters_;
};

// --- paper_tc: cycle-accurate batches of TC1 and TC2 on one device --------

class PaperTc final : public Workload {
 public:
  PaperTc(std::uint64_t seed, std::string anchors_path)
      : seed_(seed), anchors_path_(std::move(anchors_path)) {}

  const char* work_unit() const override { return "simulated fabric cycles"; }
  std::size_t pass_size() const override { return 2 * kSweep[0].size(); }
  // At least 11 TC2 batch-16 ops, so the 11th-largest op (op_tail_ms) is
  // always one of them and never flips to a smaller batch on a slow host.
  std::size_t min_passes() const override { return 12; }

  void setup(Tracer& tr) override {
    specs_[0] = std::make_unique<core::NetworkSpec>(core::make_usps_preset(1).compile_spec());
    specs_[1] = std::make_unique<core::NetworkSpec>(core::make_cifar_preset(2).compile_spec());
    for (std::size_t d = 0; d < 2; ++d) {
      Tracer::Scope s(tr, "core.build_accelerator");
      harness_[d] = std::make_unique<core::AcceleratorHarness>(core::build_accelerator(*specs_[d]));
    }
    for (std::size_t d = 0; d < 2; ++d) {
      Tracer::Scope s(tr, "core.compile_schedule");
      schedule_[d] = std::make_unique<core::CompiledSchedule>(
          core::compile_schedule(*specs_[d], {}, core::ScheduleMode::kBatch));
    }
  }

  void references(Tracer&, std::vector<std::string>& problems) override {
    std::ifstream in(anchors_path_, std::ios::binary);
    if (!in) throw dfc::ConfigError("cannot read anchors file '" + anchors_path_ + "'");
    std::stringstream text;
    text << in.rdbuf();
    auto expect = [&](const char* key, double got, const char* fmt) {
      const std::string want = format(fmt, anchor(text.str(), key));
      if (format(fmt, got) != want) {
        problems.push_back(std::string("anchor ") + key + ": got " + format(fmt, got) +
                           ", expected " + want);
      }
    };
    const core::CompiledSchedule& tc1 = *schedule_[0];
    const core::CompiledSchedule& tc2 = *schedule_[1];
    expect("serve_batch16_service_cycles", static_cast<double>(tc1.batch_cycles(16)), "%.0f");
    expect("fig6_usps_converged_cycles_per_image",
           static_cast<double>(tc1.batch_cycles(50)) / 50.0, "%.1f");
    expect("fig6_cifar_converged_cycles_per_image",
           static_cast<double>(tc2.batch_cycles(50)) / 50.0, "%.1f");
  }

  OpResult op(std::size_t index, Tracer& tr) override {
    const std::size_t d = index % 2;
    const std::size_t batch = kSweep[d][(index / 2) % kSweep[d].size()];
    const std::vector<Tensor> images = make_images(*specs_[d], batch, derive(seed_, d, index));
    core::AcceleratorHarness& harness = *harness_[d];
    const std::uint64_t effects_before = fifo_side_effects(harness);

    core::BatchResult got;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope op(tr, "op.paper_tc");
      Tracer::Scope call(tr, "core.harness.run_batch");
      got = harness.run_batch(images);
    }
    OpResult r;
    r.ms = ms_since(t0);

    // A model per op: its logits memo then never holds more than this op's
    // images, so the reference adds nothing to peak_rss_mb that grows with
    // the number of ops.
    const core::FunctionalModel model(*specs_[d]);
    std::vector<std::vector<float>> ref;
    {
      Tracer::Scope check(tr, "check.paper_tc");
      for (const Tensor& image : images) {
        Tracer::Scope s(tr, "core.functional_model.infer");
        ref.push_back(model.infer(image));
      }
    }
    r.reason = check_batch(got, ref, *schedule_[d]);
    if (!r.reason.empty()) r.reason = specs_[d]->name + " batch " + std::to_string(batch) + ": " + r.reason;
    r.work = r.reason.empty() ? static_cast<double>(got.total_cycles()) : 0.0;

    if (tr.enabled()) {
      counters_["core.run_batch.sim_cycles"] += static_cast<double>(got.total_cycles());
      counters_["fifo.effects"] += static_cast<double>(fifo_side_effects(harness) - effects_before);
      counters_["fifo.images"] += static_cast<double>(batch);
    }
    if (index < pass_size()) {
      for (std::size_t i = 0; i < got.completed(); ++i) {
        first_pass_.add(got.inject_cycles[i] - got.start_cycle);
        first_pass_.add(got.completion_cycles[i] - got.start_cycle);
      }
      for (const std::vector<float>& logits : got.outputs) {
        first_pass_.add_bytes(logits.data(), logits.size() * sizeof(float));
      }
    }
    return r;
  }

  std::string digest() const override { return first_pass_.hex(); }

 private:
  // The Fig. 6 sweep: TC1 over 1-64 images, TC2 over 1-16; ops alternate
  // designs, so one pass is 16 ops.
  static constexpr std::array<std::array<std::size_t, 8>, 2> kSweep{{
      {1, 2, 4, 8, 16, 32, 48, 64},
      {1, 2, 3, 4, 6, 8, 12, 16},
  }};

  static std::string format(const char* fmt, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
  }

  static double anchor(const std::string& text, const std::string& key) {
    const std::size_t at = text.find("\"" + key + "\"");
    const std::size_t colon = at == std::string::npos ? at : text.find(':', at);
    if (colon == std::string::npos) throw dfc::ConfigError("anchor '" + key + "' not found");
    return std::strtod(text.c_str() + colon + 1, nullptr);
  }

  /// Exact FIFO side effects so far: the sum SimContext keeps internally
  /// (pushes, pops and stall cycles of every FIFO), read through the public
  /// per-FIFO lifetime statistics.
  static std::uint64_t fifo_side_effects(core::AcceleratorHarness& harness) {
    const dfc::df::SimContext& ctx = *harness.accelerator().ctx;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
      const dfc::df::FifoStats& s = ctx.fifo(i).lifetime_stats();
      total += s.pushes + s.pops + s.full_stall_cycles + s.empty_stall_cycles;
    }
    return total;
  }

  std::uint64_t seed_;
  std::string anchors_path_;
  std::array<std::unique_ptr<core::NetworkSpec>, 2> specs_;
  std::array<std::unique_ptr<core::AcceleratorHarness>, 2> harness_;
  std::array<std::unique_ptr<core::CompiledSchedule>, 2> schedule_;
  Digest first_pass_;  ///< cycles and logits of the first pass's ops
};

// --- replica_tables: service tables of single- and multi-board replicas ---

class ReplicaTables final : public Workload {
 public:
  explicit ReplicaTables(std::uint64_t seed) : seed_(seed) {}

  const char* work_unit() const override { return "correct service tables"; }
  std::size_t pass_size() const override { return kConfigs.size(); }
  // At least 11 TC2 ops, so the 11th-largest op (op_tail_ms) is always a
  // TC2 table and never flips to a TC1 one when the host runs slower.
  std::size_t min_passes() const override { return 12; }

  void setup(Tracer&) override {
    specs_[0] = std::make_unique<core::NetworkSpec>(core::make_usps_preset(1).compile_spec());
    specs_[1] = std::make_unique<core::NetworkSpec>(core::make_cifar_preset(2).compile_spec());
  }

  void references(Tracer& tr, std::vector<std::string>& problems) override {
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      ref_[c] = fresh_table(kConfigs[c], tr, problems);
    }
  }

  OpResult op(std::size_t index, Tracer& tr) override {
    // The seed picks which configuration a pass starts with.
    const std::size_t c = (index + seed_) % kConfigs.size();
    const core::NetworkSpec& spec = *specs_[kConfigs[c].design];
    const std::string name = config_name(c);
    const std::string span = "cluster.measure_service_table." + name;

    std::vector<std::uint64_t> table;
    std::string error;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope op(tr, "op.replica_tables");
      Tracer::Scope call(tr, span);
      try {
        table = cluster::measure_service_table(spec, kConfigs[c].boards, kMaxBatch);
      } catch (const std::exception& e) {
        error = error_summary(e.what());
      }
    }
    OpResult r;
    r.ms = ms_since(t0);

    std::size_t matching = 0;
    r.reason = error.empty() ? check_table(table, ref_[c], matching)
                             : "measure_service_table threw: " + error;
    if (!r.reason.empty()) r.reason = name + ": " + r.reason;
    r.work = r.reason.empty() ? 1.0 : 0.0;
    counters_["table.entries"] += static_cast<double>(kMaxBatch);
    counters_["table.entries_correct"] += static_cast<double>(matching);

    if (index < pass_size()) {
      first_pass_.add(error);
      for (std::uint64_t v : table) first_pass_.add(v);
    }
    return r;
  }

  std::string digest() const override {
    Digest dg = first_pass_;
    for (const std::vector<std::uint64_t>& table : ref_) {
      for (std::uint64_t v : table) dg.add(v);
    }
    return dg.hex();
  }

 private:
  struct Config {
    std::size_t design;  ///< 0 = TC1, 1 = TC2
    std::size_t boards;
  };
  // TC1 at 1-4 boards and TC2 at 2. Five configurations rather than four put
  // the median op inside one configuration's times instead of between two.
  static constexpr std::array<Config, 5> kConfigs{{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}}};

  std::string config_name(std::size_t c) const {
    return specs_[kConfigs[c].design]->name + "_" + std::to_string(kConfigs[c].boards) + "b";
  }

  /// Each batch size on its own freshly built harness, partitioned and
  /// linked exactly as measure_service_table does with its defaults.
  std::vector<std::uint64_t> fresh_table(const Config& cfg, Tracer& tr,
                                         std::vector<std::string>& problems) {
    const core::NetworkSpec& spec = *specs_[cfg.design];
    std::vector<std::uint64_t> table(kMaxBatch, 0);
    const core::InterLinkModel link{};
    mfpga::MultiFpgaPlan plan;
    core::BuildOptions opts;
    if (cfg.boards > 1) {
      plan = mfpga::partition_network_exact(spec, cfg.boards, link.link, link.credits);
      opts.link = link.link;
    }
    for (std::size_t n = 1; n <= kMaxBatch; ++n) {
      const std::vector<Tensor> images = make_images(spec, n, derive(seed_, 100 + cfg.boards, n));
      core::BatchResult res;
      if (cfg.boards == 1) {
        core::AcceleratorHarness harness(core::build_accelerator(spec));
        {
          Tracer::Scope s(tr, "core.harness.run_batch");
          res = harness.run_batch(images);
        }
        if (tr.enabled()) counters_["core.run_batch.sim_cycles"] += static_cast<double>(res.total_cycles());
      } else {
        mfpga::MultiFpgaHarness harness(
            mfpga::build_multi_fpga(spec, plan.layer_device, opts, link.credits));
        {
          Tracer::Scope s(tr, "multifpga.harness.run_batch");
          res = harness.run_batch(images);
        }
        if (tr.enabled()) {
          counters_["multifpga.sim_cycles"] += static_cast<double>(res.total_cycles());
          counters_["multifpga.link_words"] +=
              static_cast<double>(harness.accelerator().link_words_transferred());
          counters_["multifpga.images"] += static_cast<double>(n);
        }
      }
      if (!res.ok()) {
        problems.push_back("fresh-harness reference for " + spec.name + " on " +
                           std::to_string(cfg.boards) + " boards, batch " + std::to_string(n) +
                           " ended " + core::run_status_name(res.status));
      }
      table[n - 1] = res.total_cycles();
    }
    return table;
  }

  std::uint64_t seed_;
  std::array<std::unique_ptr<core::NetworkSpec>, 2> specs_;
  std::array<std::vector<std::uint64_t>, kConfigs.size()> ref_;
  Digest first_pass_;  ///< tables (or errors) of the first pass's ops
};

// --- fleet_4 / fleet_256: the `dfcnn cluster` reference fleet's planners --

class Fleet final : public Workload {
 public:
  /// `windows` distinct windows of each kind are generated during set-up
  /// and cycled over. The count is odd, so a traced run plans every window
  /// in both its traced (odd) and untraced (even) passes.
  Fleet(std::uint64_t seed, std::size_t nodes, std::size_t windows)
      : seed_(seed), nodes_(nodes), windows_(windows) {}

  const char* work_unit() const override { return "planned requests"; }
  std::size_t pass_size() const override { return kKinds; }
  // Two visits per window: the second re-plans it and must agree byte for byte.
  std::size_t min_passes() const override { return 2 * windows_; }

  void setup(Tracer& tr) override {
    spec_ = std::make_unique<core::NetworkSpec>(core::make_usps_preset(1).compile_spec());
    config_ = reference_config(*spec_, nodes_);

    // One table per distinct board count, as cluster::Cluster measures them.
    std::map<std::size_t, std::vector<std::uint64_t>> by_boards;
    for (std::size_t boards : {std::size_t{1}, std::size_t{2}}) {
      Tracer::Scope s(tr, "cluster.measure_service_table." + spec_->name + "_" +
                              std::to_string(boards) + "b");
      by_boards[boards] = cluster::measure_service_table(*spec_, boards, kMaxBatch,
                                                         config_.board_link, config_.build);
    }
    tables_.clear();
    for (const cluster::NodeConfig& n : config_.nodes) tables_.push_back(by_boards.at(n.boards));

    const Timing timing = estimate(*spec_);
    serve_config_ = serve::ServeConfig{};
    serve_config_.replicas = 4;
    serve_config_.batcher.max_batch_size = kMaxBatch;
    serve_config_.batcher.max_wait_cycles = timing.max_wait;
    serve_table_.assign(kMaxBatch, 0);
    {
      Tracer::Scope s(tr, "serve.ReplicaPool.warm");
      serve::ReplicaPool pool(*spec_, serve_config_.replicas);
      pool.warm(kMaxBatch, 0);
      for (std::size_t n = 1; n <= kMaxBatch; ++n) serve_table_[n - 1] = pool.service_cycles(n);
    }

    // Offered load: 0.5 Mreq/s per node (2 Mreq/s on the 4-node fleet).
    const double cluster_rate = 0.5e6 * static_cast<double>(nodes_);
    const double serve_rate = 0.8 * static_cast<double>(serve_config_.replicas) * timing.ips;
    const serve::ArrivalProcess shapes[3] = {serve::ArrivalProcess::kDiurnal,
                                             serve::ArrivalProcess::kBursty,
                                             serve::ArrivalProcess::kPoisson};
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::vector<Window>& windows = windows_of_[k];
      windows.clear();
      for (std::size_t w = 0; w < windows_; ++w) {
        serve::LoadSpec ls;
        ls.arrivals = shapes[k];
        ls.rate_images_per_second = k < 2 ? cluster_rate : serve_rate;
        ls.request_count = kWindowRequests;
        ls.seed = derive(seed_, 200 + k, w);
        Window win;
        {
          Tracer::Scope s(tr, "serve.generate_load");
          win.requests = serve::generate_load(*spec_, ls).requests;
        }
        if (k < 2) {
          Tracer::Scope s(tr, "cluster.assign_classes");
          win.class_of = cluster::assign_classes(win.requests.size(), config_.classes,
                                                 derive(seed_, 300 + k, w));
        }
        windows.push_back(std::move(win));
      }
    }
  }

  void references(Tracer&, std::vector<std::string>& problems) override {
    // The fleet plans with the tables `dfcnn cluster` would use.
    const cluster::Cluster fleet(*spec_, config_);
    for (std::size_t i = 0; i < nodes_; ++i) {
      if (fleet.table(i) != tables_[i]) {
        problems.push_back("node " + std::to_string(i) + " table differs from cluster::Cluster's");
        break;
      }
    }
  }

  OpResult op(std::size_t index, Tracer& tr) override {
    const std::size_t kind = index % kKinds;
    const std::size_t w = (index / kKinds) % windows_;
    Window& win = windows_of_[kind][w];
    const std::size_t visit = ++win.visits;
    const auto requests = static_cast<double>(win.requests.size());
    OpResult r;

    if (kind < 2) {
      cluster::ClusterReport report;
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope op(tr, "op.fleet");
        Tracer::Scope call(tr, "cluster.plan_cluster");
        report = cluster::plan_cluster(win.requests, win.class_of, config_, tables_);
      }
      r.ms = ms_since(t0);
      r.reason = check_cluster(report, tables_);
      if (visit <= 2) {
        const std::string replan = same_as_first(win, visit, fnv(report.csv()), "ClusterReport::csv()");
        if (r.reason.empty()) r.reason = replan;
      }
      if (tr.enabled()) {
        counters_["plan_cluster.requests"] += requests;
        counters_["plan_cluster.req_nodes"] += requests * static_cast<double>(nodes_);
      }
      if (visit == 1) {
        const cluster::ClusterStats& st = report.stats;
        counters_["cluster.plan_cluster.offered"] += static_cast<double>(st.offered_requests);
        counters_["cluster.plan_cluster.completed"] += static_cast<double>(st.completed_requests);
        counters_["cluster.plan_cluster.shed"] +=
            static_cast<double>(st.shed_overflow + st.shed_deadline);
        std::size_t batches = 0;
        for (const cluster::NodeStats& ns : st.node_stats) batches += ns.batches;
        counters_["cluster.plan_cluster.batches"] += static_cast<double>(batches);
        counters_["cluster.plan_cluster.scale_events"] += static_cast<double>(st.scale_events);
      }
    } else {
      serve::ServeReport report;
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope op(tr, "op.fleet");
        Tracer::Scope call(tr, "serve.plan_serving");
        report = serve::plan_serving(win.requests, serve_config_, serve_table_);
      }
      r.ms = ms_since(t0);
      r.reason = check_serve(report, serve_table_);
      if (visit <= 2) {
        const std::string replan = same_as_first(win, visit, serve_report_hash(report), "the serving plan");
        if (r.reason.empty()) r.reason = replan;
      }
      if (tr.enabled()) counters_["plan_serving.requests"] += requests;
      if (visit == 1) {
        const serve::ServeStats& st = report.stats;
        counters_["serve.plan_serving.offered"] += static_cast<double>(st.offered_requests);
        counters_["serve.plan_serving.completed"] += static_cast<double>(st.completed_requests);
        counters_["serve.plan_serving.shed"] += static_cast<double>(st.shed_requests);
        counters_["serve.plan_serving.batches"] += static_cast<double>(st.batches);
      }
    }
    static const char* const kNames[3] = {"diurnal plan_cluster", "bursty plan_cluster",
                                          "poisson plan_serving"};
    if (!r.reason.empty()) r.reason = std::string(kNames[kind]) + ": " + r.reason;
    r.work = r.reason.empty() ? requests : 0.0;
    return r;
  }

  std::string digest() const override {
    Digest dg;
    for (const std::vector<std::uint64_t>& t : tables_) {
      for (std::uint64_t v : t) dg.add(v);
    }
    for (std::uint64_t v : serve_table_) dg.add(v);
    for (std::size_t k = 0; k < kKinds; ++k) {
      for (const Window& win : windows_of_[k]) dg.add(win.first_hash);
    }
    return dg.hex();
  }

 private:
  struct Window {
    std::vector<serve::Request> requests;
    std::vector<std::size_t> class_of;  ///< plan_cluster windows only
    std::size_t visits = 0;
    std::uint64_t first_hash = 0;  ///< digest of the first plan's output
  };

  struct Timing {
    std::uint64_t max_wait = 0;
    double ips = 0.0;
  };

  static Timing estimate(const core::NetworkSpec& spec) {
    const auto timing = dfc::dse::estimate_timing(spec);
    return {static_cast<std::uint64_t>(timing.interval_cycles) * kMaxBatch,
            timing.images_per_second()};
  }

  /// The `dfcnn cluster` reference fleet: node 0 serves from two-board
  /// replicas, every node sits behind LinkModel{200, 1} hops, three SLO
  /// classes, least-loaded routing, max batch 16.
  static cluster::ClusterConfig reference_config(const core::NetworkSpec& spec, std::size_t nodes) {
    cluster::ClusterConfig config;
    config.policy = cluster::RoutePolicy::kLeastLoaded;
    config.batcher.max_batch_size = kMaxBatch;
    config.batcher.max_wait_cycles = estimate(spec).max_wait;
    config.classes = cluster::default_deadline_classes();
    cluster::HopModel hop;
    hop.link.link = core::LinkModel{200, 1};
    for (std::size_t i = 0; i < nodes; ++i) {
      cluster::NodeConfig nc;
      nc.boards = i == 0 ? 2 : 1;
      nc.replicas = 2;
      nc.queue_capacity = 256;
      nc.weight = i == 0 ? 2 : 1;
      nc.ingress = hop;
      nc.egress = hop;
      config.nodes.push_back(nc);
    }
    return config;
  }

  static std::uint64_t fnv(const std::string& s) {
    Digest dg;
    dg.add(s);
    return dg.value();
  }

  /// Keeps the first plan's hash; the second plan of the window must match.
  static std::string same_as_first(Window& win, std::size_t visit, std::uint64_t hash,
                                   const char* what) {
    if (visit == 1) {
      win.first_hash = hash;
      return {};
    }
    if (hash == win.first_hash) return {};
    return std::string("re-planning the window changed ") + what;
  }

  // A pass plans one window of each kind: diurnal and bursty with
  // plan_cluster, Poisson with plan_serving.
  static constexpr std::size_t kKinds = 3;

  std::uint64_t seed_;
  std::size_t nodes_;
  std::size_t windows_;
  std::unique_ptr<core::NetworkSpec> spec_;
  cluster::ClusterConfig config_;
  std::vector<std::vector<std::uint64_t>> tables_;  ///< per node
  serve::ServeConfig serve_config_;
  std::vector<std::uint64_t> serve_table_;
  std::array<std::vector<Window>, 3> windows_of_;  ///< diurnal, bursty, poisson
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "paper_tc") return std::make_unique<PaperTc>(o.seed, o.anchors_path);
  if (o.workload == "replica_tables") return std::make_unique<ReplicaTables>(o.seed);
  if (o.workload == "fleet_4") return std::make_unique<Fleet>(o.seed, 4, 15);
  if (o.workload == "fleet_256") return std::make_unique<Fleet>(o.seed, 256, 7);
  throw dfc::ConfigError("unknown workload '" + o.workload + "'");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

struct LoopTotals {
  std::size_t passes = 0;
  double op_seconds = 0.0;      ///< timed op time of every pass
  double traced_seconds = 0.0;  ///< the part spent in traced passes
  double work = 0.0;
  /// Per op, the index of the first calibration sample taken after it.
  std::vector<std::size_t> op_sample;
};

/// Runs whole passes of ops until the timed op time reaches `budget_s` and
/// at least min_passes() ran, sampling the host speed between ops. With
/// `traced` set, odd passes run under it and even ones untraced, so both
/// halves see the same warm-up and a like mix of inputs; the loop then ends
/// on an even number of passes.
LoopTotals run_loop(Workload& w, OpLedger& ledger, double budget_s, Tracer* traced,
                    HostSpeed& speed) {
  Tracer untraced(false);
  LoopTotals t;
  double since_sample_s = 0.0;
  speed.sample();
  while (t.passes < w.min_passes() || t.op_seconds < budget_s ||
         (traced != nullptr && t.passes % 2 == 1)) {
    const bool traced_pass = traced != nullptr && t.passes % 2 == 1;
    Tracer& tr = traced_pass ? *traced : untraced;
    double pass_seconds = 0.0;
    double pass_work = 0.0;
    for (std::size_t j = 0; j < w.pass_size(); ++j) {
      const std::size_t index = t.passes * w.pass_size() + j;
      Workload::OpResult r;
      const std::int64_t t0 = now_ns();
      try {
        r = w.op(index, tr);
      } catch (const std::exception& e) {
        r = Workload::OpResult{ms_since(t0), 0.0, "op threw: " + error_summary(e.what())};
      }
      ledger.record(r.ms, r.reason);
      t.op_sample.push_back(speed.samples());
      pass_seconds += r.ms * 1e-3;
      pass_work += r.work;
      since_sample_s += r.ms * 1e-3;
      if (since_sample_s >= kCalibrateEveryS) {
        speed.sample();
        since_sample_s = 0.0;
      }
    }
    t.op_seconds += pass_seconds;
    if (traced_pass) t.traced_seconds += pass_seconds;
    t.work += pass_work;
    ++t.passes;
  }
  return t;
}

/// Each op's host time at the reference speed: scaled by the mean of the
/// calibration samples taken just before and just after it.
std::vector<double> scaled_op_ms(const std::vector<double>& op_ms, const LoopTotals& t,
                                 const HostSpeed& speed) {
  std::vector<double> out(op_ms.size());
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    const std::size_t after = std::min(t.op_sample[i], speed.samples() - 1);
    const double sample_ms = 0.5 * (speed.sample_ms(t.op_sample[i] - 1) + speed.sample_ms(after));
    out[i] = op_ms[i] * kReferenceSampleMs / sample_ms;
  }
  return out;
}

/// Correct work of the whole run per second of (scaled) op time.
double work_rate(const std::vector<double>& op_ms, const LoopTotals& t) {
  double ms = 0.0;
  for (double v : op_ms) ms += v;
  return t.work / (ms * 1e-3);
}

/// The highest percentile with at least 10 ops above it: the 11th largest
/// op (1-based nearest rank), or the largest of a run with 10 ops or fewer.
std::size_t tail_rank(std::size_t ops) { return ops > 10 ? ops - 10 : ops; }

double tail_of(std::vector<double> op_ms) {
  if (op_ms.empty()) return 0.0;
  std::sort(op_ms.begin(), op_ms.end());
  return op_ms[tail_rank(op_ms.size()) - 1];
}

/// Per-layer metrics from the traced run's spans and counters.
std::vector<Metric> layer_metrics(const Tracer& tr, const Counters& counters, std::size_t setups,
                                  double overhead_pct) {
  const std::map<std::string, Tracer::Totals> spans = tr.totals();
  auto span = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? Tracer::Totals{} : it->second;
  };
  auto count = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto per_call_ms = [&](const std::string& name) {
    const Tracer::Totals t = span(name);
    return ratio(t.total_ms, static_cast<double>(t.calls));
  };
  auto per_setup_ms = [&](const std::string& name) {
    return span(name).total_ms / static_cast<double>(setups);
  };

  std::map<std::string, double> v;
  const Tracer::Totals run_batch = span("core.harness.run_batch");
  v["core.harness.run_batch.self_ms"] = ratio(run_batch.self_ms, static_cast<double>(run_batch.calls));
  v["core.harness.run_batch.ns_per_sim_cycle"] =
      ratio(run_batch.total_ms * 1e6, count("core.run_batch.sim_cycles"));
  v["dataflow.fifo_side_effects_per_image"] = ratio(count("fifo.effects"), count("fifo.images"));
  v["core.functional_model.infer.us_per_image"] = per_call_ms("core.functional_model.infer") * 1e3;
  v["core.build_accelerator.ms"] = per_setup_ms("core.build_accelerator");
  v["core.compile_schedule.ms"] = per_setup_ms("core.compile_schedule");
  v["multifpga.harness.run_batch.ns_per_sim_cycle"] =
      ratio(span("multifpga.harness.run_batch").total_ms * 1e6, count("multifpga.sim_cycles"));
  v["multifpga.link_words_per_image"] =
      ratio(count("multifpga.link_words"), count("multifpga.images"));
  for (const char* table : {"usps-tc1_1b", "usps-tc1_2b", "usps-tc1_3b", "usps-tc1_4b", "cifar-tc2_2b"}) {
    const std::string name = std::string("cluster.measure_service_table.") + table;
    v[name + ".ms"] = per_call_ms(name);
  }
  v["cluster.service_table.correct_entry_ratio"] =
      ratio(count("table.entries_correct"), count("table.entries"));
  const double plan_ms = span("cluster.plan_cluster").total_ms;
  v["cluster.plan_cluster.us_per_req"] = ratio(plan_ms * 1e3, count("plan_cluster.requests"));
  v["cluster.plan_cluster.ns_per_req_node"] = ratio(plan_ms * 1e6, count("plan_cluster.req_nodes"));
  v["serve.plan_serving.us_per_req"] =
      ratio(span("serve.plan_serving").total_ms * 1e3, count("plan_serving.requests"));
  v["serve.generate_load.ms"] = per_setup_ms("serve.generate_load");
  v["cluster.assign_classes.ms"] = per_setup_ms("cluster.assign_classes");
  v["serve.ReplicaPool.warm.ms"] = per_setup_ms("serve.ReplicaPool.warm");
  for (const char* c : {"cluster.plan_cluster.offered", "cluster.plan_cluster.completed",
                        "cluster.plan_cluster.shed", "cluster.plan_cluster.batches",
                        "cluster.plan_cluster.scale_events", "serve.plan_serving.offered",
                        "serve.plan_serving.completed", "serve.plan_serving.shed",
                        "serve.plan_serving.batches"}) {
    v[c] = count(c);
  }
  v["bench.trace_overhead_pct"] = overhead_pct;

  std::vector<Metric> out;
  for (const LayerDef& def : kLayers) out.push_back(Metric{def.name, v.at(def.name), def.unit});
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_tc", "replica_tables", "fleet_4", "fleet_256"};
  return names;
}

RunResult run_benchmark(const Options& options) {
  std::unique_ptr<Workload> w = make_workload(options);
  RunResult res;
  Tracer tr(options.trace);

  HostSpeed setup_speed;
  setup_speed.sample();
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  double since_sample_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    // Each set-up starts cold: no schedule or functional model cached.
    core::clear_schedule_cache();
    core::clear_functional_model_cache();
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope s(tr, "setup");
      w->setup(tr);
    }
    setup_s.push_back(ms_since(t0) * 1e-3);
    setup_total_s += setup_s.back();
    since_sample_s += setup_s.back();
    if (since_sample_s >= kCalibrateEveryS) {
      setup_speed.sample();
      since_sample_s = 0.0;
    }
  }
  setup_speed.sample();
  {
    Tracer::Scope s(tr, "reference");
    w->references(tr, res.problems);
  }

  HostSpeed loop_speed;
  const LoopTotals loop =
      run_loop(*w, res.ops, options.seconds, options.trace ? &tr : nullptr, loop_speed);
  if (options.trace) {
    // Per-layer numbers come from the traced passes; the untraced ones
    // between them give the tracing overhead.
    const double plain_s = loop.op_seconds - loop.traced_seconds;
    const double overhead_pct = (loop.traced_seconds / plain_s - 1.0) * 100.0;
    res.metrics = layer_metrics(tr, w->counters(), setup_s.size(), overhead_pct);
    res.notes.push_back("trace overhead: traced passes " + fixed(loop.traced_seconds, 3) +
                        " s vs untraced passes " + fixed(plain_s, 3) + " s (" +
                        fixed(overhead_pct, 2) + "%)");
    for (const auto& [name, t] : tr.totals()) {
      res.notes.push_back("span " + name + ": " + std::to_string(t.calls) + " calls, total " +
                          fixed(t.total_ms, 3) + " ms, self " + fixed(t.self_ms, 3) + " ms");
    }
    if (!options.trace_out.empty()) {
      if (tr.write_json(options.trace_out)) {
        res.notes.push_back("spans written to " + options.trace_out);
      } else {
        res.problems.push_back("cannot write spans to " + options.trace_out);
      }
    }
  }

  const std::size_t n = res.ops.op_ms.size();
  const double tail_pct =
      n == 0 ? 0.0 : 100.0 * static_cast<double>(tail_rank(n)) / static_cast<double>(n);
  // End-to-end times are reported at the reference host speed; the raw
  // host figures are printed below.
  const std::vector<double> scaled = scaled_op_ms(res.ops.op_ms, loop, loop_speed);
  if (!options.trace) {
    res.metrics = {
        {"setup_s", median(setup_s) * setup_speed.time_scale(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"op_p50_ms", median(scaled), "ms"},
        {"op_tail_ms", tail_of(scaled), "ms"},
        {"work_per_s", work_rate(scaled, loop), "work/s"},
    };
  }

  std::string setups;
  for (std::size_t i = 0; i < std::min<std::size_t>(setup_s.size(), 5); ++i) {
    setups += (setups.empty() ? "" : ", ") + fixed(setup_s[i], 4);
  }
  if (setup_s.size() > 5) setups += ", ...";
  res.notes.push_back("workload " + options.workload + ", seed " + std::to_string(options.seed) +
                      ": " + std::to_string(loop.passes) + " passes of " +
                      std::to_string(w->pass_size()) + " ops, " + fixed(loop.op_seconds, 3) +
                      " s timed");
  res.notes.push_back(std::to_string(setup_s.size()) + " set-ups (s): " + setups);
  auto speed_note = [](const char* phase, const HostSpeed& speed) {
    return "host speed in " + std::string(phase) + ": median calibration sample " +
           fixed(speed.median_ms(), 4) + " ms of " + std::to_string(speed.samples()) +
           " (reference " + fixed(kReferenceSampleMs, 1) + " ms), times scaled by " +
           fixed(speed.time_scale(), 4);
  };
  res.notes.push_back(speed_note("set-up", setup_speed));
  res.notes.push_back(speed_note("ops", loop_speed));
  res.notes.push_back("raw host figures: setup_s " + fixed(median(setup_s), 6) + ", op_p50_ms " +
                      fixed(median(res.ops.op_ms), 4) + ", op_tail_ms " +
                      fixed(tail_of(res.ops.op_ms), 4) + ", work_per_s " +
                      fixed(work_rate(res.ops.op_ms, loop), 1));
  res.notes.push_back("work_per_s counts " + std::string(w->work_unit()) + ": " +
                      fixed(loop.work, 0) + " in " + fixed(loop.op_seconds, 3) +
                      " s of raw op time");
  res.notes.push_back("op_tail_ms is p" + fixed(tail_pct, 2) + " of " + std::to_string(n) +
                      " ops (" + std::to_string(n - tail_rank(n)) + " ops above it)");
  res.notes.push_back("ops attempted " + std::to_string(res.ops.attempted()) + ", failed " +
                      std::to_string(res.ops.failed));
  for (const auto& [reason, count] : res.ops.reasons) {
    res.notes.push_back("  failed x" + std::to_string(count) + ": " + reason);
  }
  for (const std::string& p : res.problems) res.notes.push_back("PROBLEM: " + p);
  res.notes.push_back("digest " + options.workload + " " + w->digest());
  return res;
}

}  // namespace perfbench
