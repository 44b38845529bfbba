// Independent per-op checks and the op ledger.
//
// Every check compares a library result against an answer the benchmark
// computed another way (a private FunctionalModel, a compiled-schedule
// replay, a fresh harness, a recount of the planner's outcomes). A check
// returns an empty string when the result is correct, and otherwise one
// line saying what is wrong; the ledger then counts the op as failed under
// that reason. Checks always run outside the timed regions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster_stats.hpp"
#include "core/harness.hpp"
#include "core/schedule.hpp"
#include "serve/serve_stats.hpp"

namespace perfbench {

/// 64-bit FNV-1a over everything added, in order.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Attempted and failed ops of a run, with each op's host time and the
/// reasons of the failures.
struct OpLedger {
  std::vector<double> op_ms;  ///< every attempted op, in order
  std::size_t failed = 0;
  std::map<std::string, std::size_t> reasons;  ///< failure reason -> ops

  /// Records one op; a non-empty reason marks it failed.
  void record(double ms, const std::string& reason);
  std::size_t attempted() const { return op_ms.size(); }
};

/// First line of an exception message (the library appends multi-line FIFO
/// reports to some errors).
std::string first_line(const std::string& text);

/// A cycle-accurate batch against its references: the run completed, the
/// logits are bit-equal to `ref_logits`, and every inject/completion cycle
/// equals the compiled schedule's replay.
std::string check_batch(const dfc::core::BatchResult& got,
                        const std::vector<std::vector<float>>& ref_logits,
                        const dfc::core::CompiledSchedule& schedule);

/// A service table against the fresh-harness table of the same design.
/// `matching` receives the number of equal entries.
std::string check_table(const std::vector<std::uint64_t>& got,
                        const std::vector<std::uint64_t>& ref, std::size_t& matching);

/// A cluster plan: the scorecard's class and node counts equal a recount of
/// the outcomes and satisfy offered = completed + shed, every batch served
/// for exactly its node's table entry, and the scale-event count matches.
std::string check_cluster(const dfc::cluster::ClusterReport& report,
                          const std::vector<std::vector<std::uint64_t>>& tables);

/// A serving plan: offered = completed + shed against a recount, and every
/// batch served for exactly the table entry of its size.
std::string check_serve(const dfc::serve::ServeReport& report,
                        const std::vector<std::uint64_t>& table);

/// Digest of everything a serving plan decided (outcomes and batches).
std::uint64_t serve_report_hash(const dfc::serve::ServeReport& report);

}  // namespace perfbench
