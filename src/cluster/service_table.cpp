#include "cluster/service_table.hpp"

#include "common/error.hpp"
#include "core/harness.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"

namespace dfc::cluster {

std::vector<std::uint64_t> measure_service_table(const dfc::core::NetworkSpec& spec,
                                                 std::size_t boards, std::size_t max_batch,
                                                 const dfc::core::InterLinkModel& link,
                                                 const dfc::core::BuildOptions& options) {
  DFC_REQUIRE(boards > 0, "a replica spans at least one board");
  DFC_REQUIRE(max_batch > 0, "service table needs a positive max batch size");
  link.validate();

  dfc::core::BatchResult res;
  if (boards == 1) {
    dfc::core::AcceleratorHarness harness(dfc::core::build_accelerator(spec, options));
    res = harness.run_timing(max_batch);
  } else {
    const mfpga::MultiFpgaPlan plan =
        mfpga::partition_network_exact(spec, boards, link.link, link.credits);
    dfc::core::BuildOptions opts = options;
    opts.link = link.link;
    mfpga::MultiFpgaHarness harness(
        mfpga::build_multi_fpga(spec, plan.layer_device, opts, link.credits));
    res = harness.run_timing(max_batch);
  }
  DFC_CHECK(res.ok() && res.completed() == max_batch,
            "service measurement of " + spec.name + " on " + std::to_string(boards) +
                " board(s) completed " + std::to_string(res.completed()) + " of " +
                std::to_string(max_batch) + " images: " + res.error);

  // Prefix stability (DESIGN.md §14): no image is delayed by a later one, so
  // image n-1 completes at the same cycle here as in a batch of n, and its
  // completion is the size-n batch's service time.
  std::vector<std::uint64_t> table(max_batch, 0);
  for (std::size_t n = 1; n <= max_batch; ++n) {
    table[n - 1] = res.completion_cycles[n - 1] - res.start_cycle;
  }
  return table;
}

}  // namespace dfc::cluster
