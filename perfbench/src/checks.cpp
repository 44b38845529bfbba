#include "checks.hpp"

#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void OpLedger::record(double ms, const std::string& reason) {
  op_ms.push_back(ms);
  if (reason.empty()) return;
  ++failed;
  ++reasons[reason];
}

std::string first_line(const std::string& text) { return text.substr(0, text.find('\n')); }

std::string check_batch(const dfc::core::BatchResult& got,
                        const std::vector<std::vector<float>>& ref_logits,
                        const dfc::core::CompiledSchedule& schedule) {
  if (!got.ok()) return std::string("run ended ") + dfc::core::run_status_name(got.status);
  const std::size_t n = ref_logits.size();
  if (got.completed() != n || got.outputs.size() != n || got.inject_cycles.size() != n) {
    return "completed " + num(got.completed()) + " of " + num(n) + " images";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<float>& a = got.outputs[i];
    const std::vector<float>& b = ref_logits[i];
    if (a.size() != b.size() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
      return "logits of image " + num(i) + " differ from the functional model";
    }
    if (got.inject_cycles[i] - got.start_cycle != schedule.inject_cycle(i)) {
      return "inject cycle of image " + num(i) + " differs from the compiled schedule";
    }
    if (got.completion_cycles[i] - got.start_cycle != schedule.completion_cycle(i)) {
      return "completion cycle of image " + num(i) + " differs from the compiled schedule";
    }
  }
  if (got.total_cycles() != schedule.batch_cycles(n)) {
    return "batch cycles differ from the compiled schedule";
  }
  return {};
}

std::string check_table(const std::vector<std::uint64_t>& got,
                        const std::vector<std::uint64_t>& ref, std::size_t& matching) {
  matching = 0;
  if (got.size() != ref.size()) {
    return "table has " + num(got.size()) + " entries, expected " + num(ref.size());
  }
  std::size_t first_bad = ref.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (got[i] == ref[i]) {
      ++matching;
    } else if (first_bad == ref.size()) {
      first_bad = i;
    }
  }
  if (first_bad == ref.size()) return {};
  return num(ref.size() - matching) + " of " + num(ref.size()) +
         " entries differ from a fresh harness (first: batch " + num(first_bad + 1) + " reads " +
         num(got[first_bad]) + " cycles, fresh " + num(ref[first_bad]) + ")";
}

std::string check_cluster(const dfc::cluster::ClusterReport& report,
                          const std::vector<std::vector<std::uint64_t>>& tables) {
  using dfc::cluster::ClusterOutcome;
  const dfc::cluster::ClusterStats& st = report.stats;
  if (st.offered_requests != report.outcomes.size()) return "offered count differs from outcomes";
  if (st.node_stats.size() != tables.size()) return "node scorecards differ from the fleet size";

  struct Count {
    std::size_t offered = 0, completed = 0;
    std::uint64_t shed_overflow = 0, shed_deadline = 0;
  };
  std::vector<Count> by_class(st.classes.size());
  std::vector<Count> by_node(tables.size());
  struct Batch {
    std::size_t node = 0, size = 0;
    std::uint64_t dispatch = 0, completion = 0;
  };
  std::unordered_map<std::size_t, Batch> batches;
  for (const ClusterOutcome& o : report.outcomes) {
    if (o.deadline_class >= by_class.size() || o.node >= by_node.size()) {
      return "request " + num(o.id) + " names an unknown class or node";
    }
    Count& c = by_class[o.deadline_class];
    Count& n = by_node[o.node];
    ++c.offered;
    ++n.offered;
    if (o.shed == ClusterOutcome::Shed::kOverflow) {
      ++c.shed_overflow;
      ++n.shed_overflow;
      continue;
    }
    if (o.shed == ClusterOutcome::Shed::kDeadline) {
      ++c.shed_deadline;
      ++n.shed_deadline;
      continue;
    }
    ++c.completed;
    ++n.completed;
    auto [it, fresh] = batches.try_emplace(o.batch_id, Batch{o.node, 0, o.dispatch_cycle,
                                                             o.completion_cycle});
    Batch& b = it->second;
    if (!fresh && (b.node != o.node || b.dispatch != o.dispatch_cycle ||
                   b.completion != o.completion_cycle)) {
      return "batch " + num(o.batch_id) + " riders disagree on node or cycles";
    }
    ++b.size;
  }

  for (std::size_t k = 0; k < st.classes.size(); ++k) {
    const dfc::cluster::ClassStats& cs = st.classes[k];
    const Count& c = by_class[k];
    if (cs.offered != cs.completed + cs.shed_overflow + cs.shed_deadline) {
      return "class " + cs.name + ": offered != completed + shed";
    }
    if (cs.offered != c.offered || cs.completed != c.completed ||
        cs.shed_overflow != c.shed_overflow || cs.shed_deadline != c.shed_deadline) {
      return "class " + cs.name + ": counts differ from a recount of the outcomes";
    }
  }
  std::vector<std::size_t> node_batches(tables.size(), 0);
  for (const auto& [id, b] : batches) {
    const std::vector<std::uint64_t>& table = tables[b.node];
    if (b.size == 0 || b.size > table.size()) return "batch " + num(id) + " has an invalid size";
    if (b.completion - b.dispatch != table[b.size - 1]) {
      return "batch " + num(id) + " on node " + num(b.node) +
             ": completion - dispatch differs from the node's table";
    }
    ++node_batches[b.node];
  }
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const dfc::cluster::NodeStats& ns = st.node_stats[i];
    const Count& n = by_node[i];
    if (ns.routed != ns.completed + ns.shed_overflow + ns.shed_deadline) {
      return "node " + num(i) + ": offered != completed + shed";
    }
    if (ns.routed != n.offered || ns.completed != n.completed ||
        ns.shed_overflow != n.shed_overflow || ns.shed_deadline != n.shed_deadline ||
        ns.batches != node_batches[i]) {
      return "node " + num(i) + ": counts differ from a recount of the outcomes";
    }
  }
  std::size_t completed = 0;
  for (const Count& c : by_class) completed += c.completed;
  if (st.completed_requests != completed) return "completed count differs from outcomes";
  if (st.scale_events != report.scale_events.size()) {
    return "scale-event count differs from the event list";
  }
  return {};
}

std::string check_serve(const dfc::serve::ServeReport& report,
                        const std::vector<std::uint64_t>& table) {
  const dfc::serve::ServeStats& st = report.stats;
  std::size_t completed = 0;
  std::uint64_t shed = 0;
  for (const dfc::serve::RequestOutcome& o : report.outcomes) {
    if (o.shed) {
      ++shed;
    } else if (!o.failed) {
      ++completed;
    }
  }
  if (st.offered_requests != report.outcomes.size()) return "offered count differs from outcomes";
  if (st.offered_requests != st.completed_requests + st.shed_requests + st.failed_requests) {
    return "offered != completed + shed";
  }
  if (st.completed_requests != completed || st.shed_requests != shed) {
    return "counts differ from a recount of the outcomes";
  }
  if (st.batches != report.batch_records.size()) return "batch count differs from batch records";
  std::size_t riders = 0;
  for (const dfc::serve::BatchRecord& b : report.batch_records) {
    if (b.size() == 0 || b.size() > table.size()) return "batch " + num(b.id) + " has an invalid size";
    if (b.service_cycles() != table[b.size() - 1]) {
      return "batch " + num(b.id) + ": completion - dispatch differs from the table";
    }
    for (std::uint64_t id : b.request_ids) {
      if (id >= report.outcomes.size()) return "batch " + num(b.id) + " carries an unknown request";
      const dfc::serve::RequestOutcome& o = report.outcomes[id];
      if (o.dispatch_cycle != b.dispatch_cycle || o.completion_cycle != b.completion_cycle) {
        return "request " + num(id) + " disagrees with its batch's cycles";
      }
    }
    riders += b.size();
  }
  if (riders != completed) return "batch riders differ from completed requests";
  return {};
}

std::uint64_t serve_report_hash(const dfc::serve::ServeReport& report) {
  Digest d;
  for (const dfc::serve::RequestOutcome& o : report.outcomes) {
    d.add(o.id);
    d.add(o.arrival_cycle);
    d.add(o.shed ? 1 : 0);
    d.add(o.dispatch_cycle);
    d.add(o.completion_cycle);
    d.add(o.batch_id);
    d.add(o.replica);
  }
  for (const dfc::serve::BatchRecord& b : report.batch_records) {
    d.add(b.id);
    d.add(b.replica);
    d.add(b.dispatch_cycle);
    d.add(b.completion_cycle);
    d.add(b.size());
  }
  return d.value();
}

}  // namespace perfbench
