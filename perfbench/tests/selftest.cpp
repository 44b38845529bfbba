// Shows that the benchmark's checks bite: real library outputs pass them,
// and one corrupted logit, cycle count, table entry or planner count each
// turns the op into a failed op with a reason.
//
//   perfbench_selftest        (exit 0 when every case behaves)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "cluster/service_table.hpp"
#include "common/rng.hpp"
#include "core/functional_model.hpp"
#include "core/presets.hpp"
#include "serve/server.hpp"

namespace {

using namespace dfc;
using perfbench::OpLedger;

int g_errors = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_errors;
}

/// A correct output must pass; its corrupted copy must be recorded failed.
void expect_bites(OpLedger& ledger, const std::string& what, const std::string& clean,
                  const std::string& corrupted) {
  expect(clean.empty(), what + ": clean output passes" + (clean.empty() ? "" : " (" + clean + ")"));
  const std::size_t failed_before = ledger.failed;
  ledger.record(1.0, corrupted);
  expect(ledger.failed == failed_before + 1 && !corrupted.empty(),
         what + ": corrupted output is a failed op (" + corrupted + ")");
}

std::vector<Tensor> images(const core::NetworkSpec& spec, std::size_t n) {
  Rng rng(42);
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

int main() {
  OpLedger ledger;
  const core::NetworkSpec spec = core::make_usps_preset(1).compile_spec();

  // A cycle-accurate batch against the functional model and schedule.
  {
    core::AcceleratorHarness harness(core::build_accelerator(spec));
    const std::vector<Tensor> batch = images(spec, 4);
    const core::BatchResult got = harness.run_batch(batch);
    const core::FunctionalModel model(spec);
    std::vector<std::vector<float>> ref;
    for (const Tensor& t : batch) ref.push_back(model.infer(t));
    const core::CompiledSchedule schedule = core::compile_schedule(spec, {}, core::ScheduleMode::kBatch);
    const std::string clean = perfbench::check_batch(got, ref, schedule);

    core::BatchResult bad_logit = got;
    bad_logit.outputs[2][3] = std::nextafter(bad_logit.outputs[2][3], 1e9f);
    expect_bites(ledger, "logit", clean, perfbench::check_batch(bad_logit, ref, schedule));

    core::BatchResult bad_cycle = got;
    bad_cycle.completion_cycles[1] += 1;
    expect_bites(ledger, "completion cycle", clean, perfbench::check_batch(bad_cycle, ref, schedule));
  }

  // A service table against itself, then with one entry off by a cycle.
  const std::vector<std::uint64_t> table = cluster::measure_service_table(spec, 1, 16);
  {
    std::size_t matching = 0;
    const std::string clean = perfbench::check_table(table, table, matching);
    std::vector<std::uint64_t> bad = table;
    bad[5] += 1;
    expect_bites(ledger, "table entry", clean, perfbench::check_table(bad, table, matching));
    expect(matching == 15, "table entry: 15 of 16 entries still match");
  }

  // A small fleet plan, with each planner count corrupted in turn.
  {
    cluster::ClusterConfig config;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = 4096;
    config.classes = cluster::default_deadline_classes();
    config.nodes.assign(3, cluster::NodeConfig{});
    const std::vector<std::vector<std::uint64_t>> tables(3, table);
    serve::LoadSpec ls;
    ls.arrivals = serve::ArrivalProcess::kBursty;
    ls.rate_images_per_second = 2.0e6;
    ls.request_count = 3000;
    const serve::Load load = serve::generate_load(spec, ls);
    const std::vector<std::size_t> class_of =
        cluster::assign_classes(load.requests.size(), config.classes, 5);
    const cluster::ClusterReport report = cluster::plan_cluster(load.requests, class_of, config, tables);
    const std::string clean = perfbench::check_cluster(report, tables);
    expect(report.stats.shed_deadline > 0, "fleet: the plan sheds, so shed counts are exercised");

    cluster::ClusterReport bad = report;
    bad.stats.classes[0].completed += 1;
    expect_bites(ledger, "class completed count", clean, perfbench::check_cluster(bad, tables));
    bad = report;
    bad.stats.classes[1].shed_deadline += 1;
    bad.stats.classes[1].offered += 1;
    expect_bites(ledger, "class shed count", clean, perfbench::check_cluster(bad, tables));
    bad = report;
    bad.stats.node_stats[2].batches += 1;
    expect_bites(ledger, "node batch count", clean, perfbench::check_cluster(bad, tables));
    bad = report;
    bad.stats.scale_events += 1;
    expect_bites(ledger, "scale-event count", clean, perfbench::check_cluster(bad, tables));
    bad = report;
    std::size_t batch_id = 0;
    for (const cluster::ClusterOutcome& o : bad.outcomes) {
      if (o.shed == cluster::ClusterOutcome::Shed::kNone) {
        batch_id = o.batch_id;
        break;
      }
    }
    for (cluster::ClusterOutcome& o : bad.outcomes) {
      if (o.shed == cluster::ClusterOutcome::Shed::kNone && o.batch_id == batch_id) {
        o.completion_cycle += 1;  // every rider, so only the table check sees it
      }
    }
    expect_bites(ledger, "batch service cycles", clean, perfbench::check_cluster(bad, tables));
  }

  // A serving plan.
  {
    serve::ServeConfig config;
    config.replicas = 2;
    config.batcher.max_batch_size = 16;
    config.batcher.max_wait_cycles = 4096;
    serve::LoadSpec ls;
    ls.rate_images_per_second = 1.5e6;
    ls.request_count = 3000;
    const serve::Load load = serve::generate_load(spec, ls);
    const serve::ServeReport report = serve::plan_serving(load.requests, config, table);
    const std::string clean = perfbench::check_serve(report, table);

    serve::ServeReport bad = report;
    bad.stats.completed_requests -= 1;
    bad.stats.shed_requests += 1;
    expect_bites(ledger, "serve shed count", clean, perfbench::check_serve(bad, table));
    bad = report;
    bad.stats.batches += 1;
    expect_bites(ledger, "serve batch count", clean, perfbench::check_serve(bad, table));
    bad = report;
    bad.batch_records[0].completion_cycle += 1;
    expect_bites(ledger, "serve batch cycles", clean, perfbench::check_serve(bad, table));
  }

  expect(ledger.attempted() == ledger.failed && ledger.failed == 11,
         "ledger: 11 corrupted ops attempted, all 11 failed with a reason");
  std::printf("%s: %d problem(s)\n", g_errors == 0 ? "PASS" : "FAIL", g_errors);
  return g_errors == 0 ? 0 : 1;
}
