// Benchmark entry point: runs one workload and prints, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   dfcnn_perfbench --workload <paper_tc|replica_tables|fleet_4|fleet_256>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --anchors <expected.json> [--trace-out <spans.json>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit codes: 0 after a run (whatever it found), 1 when the run could not
// be carried out, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::fprintf(stderr, "dfcnn_perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: dfcnn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--anchors <expected.json> [--trace-out <file>]\n");
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed needs a non-negative integer");
      o.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) return usage("--seconds needs 1..3600");
      o.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace needs 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--anchors") {
      o.anchors_path = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known = known || name == o.workload;
  if (!known) return usage("unknown workload '" + o.workload + "'");

  // Worker pools use every core and no more.
  const unsigned cores = std::thread::hardware_concurrency();
  setenv("DFCNN_SWEEP_THREADS", std::to_string(cores > 0 ? cores : 1).c_str(), 1);

  perfbench::RunResult res;
  try {
    res = perfbench::run_benchmark(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfcnn_perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("%-48s %16s %s\n", m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
               json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              res.problems.empty() ? "true" : "false", res.ops.attempted(), res.ops.failed,
              metrics.c_str());
  return 0;
}
