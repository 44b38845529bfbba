// Golden file for the static verifier's JSON verdicts: every shipped preset
// on one device, their 2-4 board cuts, and the two rate-limited cuts whose
// warnings carry Eq. 4 figures (a slow link: DF202; a one-credit window:
// DF203 + DF202). Each case is built the way `dfcnn check` builds it, and
// its to_json() must match tests/golden/verify_reports.txt byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/presets.hpp"
#include "multifpga/partition.hpp"
#include "verify/verifier.hpp"

namespace dfc::verify {
namespace {

dfc::core::NetworkSpec preset_spec(const std::string& name) {
  if (name == "usps") return dfc::core::make_usps_preset().compile_spec();
  if (name == "cifar") return dfc::core::make_cifar_preset().compile_spec();
  return dfc::core::make_alexnet_mini_preset().compile_spec();
}

/// `dfcnn check <name> [--devices N] [--link-gbps G] [--credits C] --json`.
std::string check_json(const std::string& name, std::size_t devices, double link_gbps,
                       int credits) {
  const auto spec = preset_spec(name);
  if (devices <= 1) return verify_design(spec).to_json();
  const int cycles_per_word = std::max(1, static_cast<int>(3.2 / link_gbps + 0.5));
  const dfc::core::LinkModel link{40, cycles_per_word};
  dfc::core::BuildOptions opts;
  opts.link = link;
  const auto plan = dfc::mfpga::partition_network_exact(spec, devices, link, credits);
  return verify_design_multi(spec, plan.layer_device, opts, credits).to_json();
}

/// One "<case> <json>" line per design.
std::string all_reports() {
  std::ostringstream os;
  const auto add = [&](const std::string& name, std::size_t devices, double gbps, int credits) {
    os << name << "/" << devices << "dev/" << gbps << "gbps/" << credits << "cr "
       << check_json(name, devices, gbps, credits) << "\n";
  };
  for (const char* name : {"usps", "cifar", "alexnet"}) add(name, 1, 3.2, 0);
  for (const char* name : {"usps", "cifar"}) {
    for (std::size_t devices = 2; devices <= 4; ++devices) add(name, devices, 3.2, 0);
  }
  add("usps", 2, 0.4, 0);
  add("cifar", 3, 3.2, 1);
  return os.str();
}

TEST(VerifyGoldenTest, ReportsMatchCommittedGoldenFile) {
  const std::string actual = all_reports();
  const std::filesystem::path golden_path =
      std::filesystem::path(__FILE__).parent_path() / "golden" / "verify_reports.txt";
  if (std::getenv("DFCNN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run once with DFCNN_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "verifier output drifted; if intentional, regenerate with DFCNN_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace dfc::verify
