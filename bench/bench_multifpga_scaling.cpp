// Extension bench: multi-FPGA scaling (paper Sec. IV-C / VI future work:
// "investigate scalability by implementing bigger networks on a multi-FPGA
// system ... this approach should allow large performance improvements").
//
// Three experiments:
//  1. Cost scaling down: the USPS design does not fit a Kintex-325T at all
//     (Eq. 4 operator floor), but a 2-board Kintex pipeline sustains the
//     full 485t throughput — the DMA ingest remains the bottleneck, so the
//     board crossing is free.
//  2. Performance scaling up: an enlarged CIFAR design (conv1 widened to 4
//     output ports) exceeds a single 485t, but partitioned over two 485t
//     boards it beats the best single-board configuration.
//  3. Executed bandwidth frontier: the true multi-context executor (one
//     SimContext per board, credit-based serial links) runs USPS on two
//     devices across link rates, measuring the throughput/latency frontier
//     against dse::estimate_timing and checking logits stay byte-identical
//     to the single-device engine (USPS and CIFAR, 2 boards each).
//
// BENCH_multifpga.json captures the machine-readable numbers CI gates on;
// multifpga_scaling.csv holds the per-rate frontier for offline plotting.
#include <cstdio>
#include <functional>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dse/explorer.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "report/sweep_runner.hpp"

namespace {

using dfc::core::LinkModel;

double simulate_interval(const dfc::core::NetworkSpec& spec,
                         const dfc::core::BuildOptions& opts) {
  dfc::core::AcceleratorHarness harness(dfc::core::build_accelerator(spec, opts));
  const auto images = dfc::report::random_images(spec, 10);
  const auto r = harness.run_batch(images);
  return static_cast<double>(r.steady_interval_cycles());
}

/// One executed point of the bandwidth frontier.
struct ExecPoint {
  int cycles_per_word = 0;
  std::int64_t predicted_interval = 0;
  std::uint64_t measured_interval = 0;
  std::uint64_t image0_latency = 0;
  std::uint64_t link_words = 0;
  bool identical = false;
};

ExecPoint run_exec_point(const dfc::core::NetworkSpec& spec,
                         const std::vector<std::size_t>& map, int cpw,
                         const std::vector<dfc::Tensor>& images,
                         const std::vector<std::vector<float>>& golden) {
  const LinkModel link{40, cpw};
  ExecPoint pt;
  pt.cycles_per_word = cpw;
  pt.predicted_interval =
      dfc::dse::estimate_timing(spec, map, {link, 0}).interval_cycles;

  dfc::core::BuildOptions opts;
  opts.link = link;
  dfc::mfpga::MultiFpgaHarness multi(dfc::mfpga::build_multi_fpga(spec, map, opts));
  const auto r = multi.run_batch(images);
  DFC_REQUIRE(r.ok(), "multi-FPGA bench run did not complete: " + r.error);
  pt.measured_interval = r.steady_interval_cycles();
  pt.image0_latency = r.image_latency_cycles(0);
  pt.link_words = multi.accelerator().link_words_transferred();
  pt.identical = r.outputs == golden;
  return pt;
}

}  // namespace

int main() {
  using namespace dfc;
  std::printf("=== Extension: multi-FPGA pipeline scaling ===\n\n");

  // --- Experiment 1: USPS on two small boards --------------------------------
  {
    std::printf("--- USPS (TC1) on Kintex-325T boards ---\n");
    const auto spec = core::make_usps_spec();
    const auto kintex = hw::kintex7_325t();
    try {
      mfpga::partition_network(spec, {kintex});
    } catch (const ConfigError&) {
      std::printf("1x %s: infeasible (Eq. 4 operator floor exceeds the device)\n",
                  kintex.name.c_str());
    }
    const LinkModel link{40, 4};  // 100 MB/s serial link
    const auto plan = mfpga::partition_network(spec, {kintex, kintex}, link);
    std::printf("%s", plan.describe(spec).c_str());

    const double dual = simulate_interval(spec, mfpga::build_options_for(plan, link));
    const double single_485t = simulate_interval(spec, {});
    std::printf("simulated interval: 2x kintex = %.0f cycles, 1x virtex-485t = %.0f\n",
                dual, single_485t);
    std::printf("-> two small boards sustain the big board's throughput "
                "(shared-DMA bound at 266 bus slots per image).\n\n");
  }

  // --- Experiment 2: enlarged CIFAR on two 485t boards -----------------------
  {
    std::printf("--- Enlarged CIFAR (TC2 with conv1 at 4 output ports) ---\n");
    core::Preset enlarged = core::make_cifar_preset();
    enlarged.plan.conv = {core::ConvPorts{1, 4}, core::ConvPorts{12, 1}};
    const auto spec = enlarged.compile_spec();
    const auto virtex = hw::virtex7_485t();

    const auto total = hw::estimate_design(spec).total;
    std::printf("enlarged design needs %s (one %s offers %.0f DSPs) -> %s\n",
                total.str().c_str(), virtex.name.c_str(), virtex.dsps,
                virtex.fits(total) ? "fits one board" : "does NOT fit one board");

    // Best single-board plan via DSE.
    const auto base = core::make_cifar_preset();
    const auto dse_single = dse::explore(base.net, base.input_shape);
    const auto single_spec =
        core::compile(base.net, base.input_shape, dse_single.best.plan, "cifar-1x485t");
    const double single = simulate_interval(single_spec, {});
    std::printf("best single-485t plan (DSE): interval %.0f cycles (%.0f images/s)\n",
                single, 100e6 / single);

    // Partition the enlarged design over two boards; a multi-lane link
    // (1 word/cycle) keeps the crossing off the critical path.
    const LinkModel fat_link{40, 1};
    const auto plan = mfpga::partition_network(spec, {virtex, virtex}, fat_link);
    std::printf("%s", plan.describe(spec).c_str());
    const double dual = simulate_interval(spec, mfpga::build_options_for(plan, fat_link));
    std::printf("simulated interval: 2x 485t = %.0f cycles (%.0f images/s)\n", dual,
                100e6 / dual);
    std::printf("speedup over best single board: %.2fx\n\n", single / dual);

    // Link bandwidth sensitivity: independent simulations, fanned out.
    const int link_rates[] = {1, 2, 4, 8, 16};
    struct LinkPoint {
      std::int64_t predicted;
      double simulated;
    };
    std::vector<std::function<LinkPoint()>> jobs;
    for (int cpw : link_rates) {
      jobs.push_back([&spec, &virtex, cpw] {
        const LinkModel link{40, cpw};
        const auto p = mfpga::partition_network(spec, {virtex, virtex}, link);
        return LinkPoint{p.timing.interval_cycles,
                         simulate_interval(spec, mfpga::build_options_for(p, link))};
      });
    }
    const auto points = report::run_sweep<LinkPoint>(jobs);
    AsciiTable t({"link words/cycle", "predicted interval", "simulated interval"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      t.add_row({"1/" + std::to_string(link_rates[i]), std::to_string(points[i].predicted),
                 fmt_fixed(points[i].simulated, 0)});
    }
    std::printf("link bandwidth sensitivity (enlarged CIFAR, 2x 485t):\n%s",
                t.render().c_str());
    std::printf(
        "-> the crossing carries the pool-1 volume; below ~1 word every 4 cycles the\n"
        "   serial link, not the fabric, bounds the pipeline.\n\n");
  }

  // --- Experiment 3: executed bandwidth frontier (true multi-context) --------
  {
    std::printf("--- Executed frontier: USPS on 2 simulated boards, credit links ---\n");
    const auto spec = core::make_usps_spec();
    // Cut after pool-1 (6 ports x 36 words): the link stage overtakes the
    // 256-cycle DMA ingest once a word costs 8+ cycles.
    const std::vector<std::size_t> map{0, 0, 1, 1};
    const auto images = report::random_images(spec, 10);

    std::vector<std::vector<float>> golden;
    std::uint64_t single_interval = 0;
    {
      core::AcceleratorHarness single(core::build_accelerator(spec));
      const auto r = single.run_batch(images);
      golden = r.outputs;
      single_interval = r.steady_interval_cycles();
    }

    const int rates[] = {1, 2, 4, 8, 16, 32};
    std::vector<std::function<ExecPoint()>> jobs;
    for (int cpw : rates) {
      jobs.push_back([&spec, &map, cpw, &images, &golden] {
        return run_exec_point(spec, map, cpw, images, golden);
      });
    }
    const auto points = report::run_sweep<ExecPoint>(jobs);

    bool usps_identical = true;
    bool frontier_tracks_model = true;
    AsciiTable t({"words/cycle", "predicted interval", "measured interval",
                  "image-0 latency", "logits identical"});
    CsvWriter csv("multifpga_scaling.csv",
                  {"cycles_per_word", "predicted_interval", "measured_interval",
                   "image0_latency_cycles", "link_words", "logits_identical"});
    for (const auto& p : points) {
      usps_identical = usps_identical && p.identical;
      const double drift =
          static_cast<double>(p.measured_interval) / static_cast<double>(p.predicted_interval);
      frontier_tracks_model = frontier_tracks_model && drift >= 0.9 && drift <= 1.1;
      t.add_row({"1/" + std::to_string(p.cycles_per_word),
                 std::to_string(p.predicted_interval), std::to_string(p.measured_interval),
                 std::to_string(p.image0_latency), p.identical ? "yes" : "NO"});
      csv.row_values(p.cycles_per_word, p.predicted_interval, p.measured_interval,
                     p.image0_latency, p.link_words, p.identical ? 1 : 0);
    }
    csv.flush();
    std::printf("%s", t.render().c_str());
    std::printf("single-device (shared DMA bus) interval: %llu cycles\n",
                static_cast<unsigned long long>(single_interval));
    std::printf("-> split boards get separate DMA buses, so the 2-board pipeline reaches\n"
                "   the ideal 256-cycle ingest; past 1 word per 4 cycles the serial link\n"
                "   becomes the measured (and predicted) bottleneck.\n\n");

    // CIFAR 2-board identity: partitioned by the exact partitioner.
    bool cifar_identical = false;
    std::uint64_t cifar_total = 0;
    {
      const auto cifar = core::make_cifar_spec();
      const LinkModel link{40, 4};
      const auto plan = mfpga::partition_network_exact(cifar, 2, link);
      core::BuildOptions opts;
      opts.link = link;
      mfpga::MultiFpgaHarness multi(mfpga::build_multi_fpga(cifar, plan.layer_device, opts));
      core::AcceleratorHarness single(core::build_accelerator(cifar));
      const auto cifar_images = report::random_images(cifar, 4);
      const auto rm = multi.run_batch(cifar_images);
      const auto rs = single.run_batch(cifar_images);
      DFC_REQUIRE(rm.ok(), "CIFAR multi-FPGA run did not complete: " + rm.error);
      cifar_identical = rm.ok() && rs.ok() && rm.outputs == rs.outputs;
      cifar_total = rm.total_cycles();
      std::printf("CIFAR on 2 boards (%s): %llu cycles, logits identical to "
                  "single-device: %s\n",
                  plan.layer_device == std::vector<std::size_t>({0, 0, 0, 0, 0, 1})
                      ? "cut before the classifier"
                      : "exact-partitioner cut",
                  static_cast<unsigned long long>(cifar_total),
                  cifar_identical ? "yes" : "NO");
    }

    std::FILE* json = std::fopen("BENCH_multifpga.json", "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open BENCH_multifpga.json\n");
      return 1;
    }
    std::fprintf(json, "{\n  \"usps_2dev_frontier\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(json,
                   "    {\"cycles_per_word\": %d, \"predicted_interval\": %lld,\n"
                   "     \"measured_interval\": %llu, \"image0_latency_cycles\": %llu,\n"
                   "     \"logits_identical\": %s}%s\n",
                   p.cycles_per_word, static_cast<long long>(p.predicted_interval),
                   static_cast<unsigned long long>(p.measured_interval),
                   static_cast<unsigned long long>(p.image0_latency),
                   p.identical ? "true" : "false", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"usps_single_device_interval\": %llu,\n"
                 "  \"usps_2dev_interval_cpw4\": %llu,\n"
                 "  \"cifar_2dev_total_cycles\": %llu,\n"
                 "  \"frontier_tracks_model\": %s,\n"
                 "  \"logits_identical\": %s\n}\n",
                 static_cast<unsigned long long>(single_interval),
                 static_cast<unsigned long long>(points[2].measured_interval),
                 static_cast<unsigned long long>(cifar_total),
                 frontier_tracks_model ? "true" : "false",
                 (usps_identical && cifar_identical) ? "true" : "false");
    std::fclose(json);

    if (!usps_identical || !cifar_identical || !frontier_tracks_model) {
      std::fprintf(stderr, "multi-FPGA execution diverged from the single-device engine "
                           "or the timing model\n");
      return 1;
    }
  }
  return 0;
}
