// Simulated hardware process (one always-active module on the FPGA fabric).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dfc::obs {
class TraceSink;
}

namespace dfc::df {

class FifoBase;
class SimContext;

/// The FIFOs a process reads (inputs) and writes (outputs).
struct Ports {
  std::vector<FifoBase*> inputs;
  std::vector<FifoBase*> outputs;
};

/// A clocked module. on_clock() runs once per cycle in phase 1 and may
/// interact with FIFOs under the registered-handshake rules (see fifo.hpp).
class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Executed every clock cycle.
  virtual void on_clock() = 0;

  /// Returns the module to its power-on state (FIFO contents are cleared by
  /// the context separately).
  virtual void reset() {}

  /// True once the module has produced/consumed everything it ever will for
  /// the current workload; used for end-of-simulation detection in tests.
  virtual bool done() const { return true; }

  /// Sentinel wake_cycle(): nothing to do until a connected FIFO moves data.
  static constexpr std::uint64_t kNeverWake = ~std::uint64_t{0};

  /// Scheduling hint for SimContext's activity-aware mode: the earliest cycle
  /// at which on_clock() could do anything observable, assuming none of its
  /// ports() transfers data in the meantime.
  ///
  /// Contract: for every cycle t with now() <= t < wake_cycle(), and provided
  /// no connected FIFO commits a push or pop between the call and t,
  /// on_clock() at t must be a complete no-op — no FIFO push/pop, no
  /// note_full_stall(), no stall-counter or other internal state change.
  /// States that record per-cycle side effects (stall accounting) must
  /// therefore return now(). The default (0) means "always awake", which is
  /// trivially correct.
  virtual std::uint64_t wake_cycle() const { return 0; }

  /// Every FIFO the process pops from (inputs) or pushes to (outputs). The
  /// scheduler watches both lists: a process with any port opts into
  /// skipping and only runs when one of them committed a transfer since its
  /// last run or wake_cycle() is due. The default (no ports) keeps the
  /// process always awake. The lists are also the design's topology: the
  /// static verifier reads its process/FIFO graph from them.
  virtual Ports ports() const { return {}; }

  const std::string& name() const { return name_; }

  /// Current cycle, read through the owning context's clock (cycle 0 before
  /// registration).
  std::uint64_t now() const { return *clock_; }

 protected:
  /// Must be called after mutating process state from outside on_clock()
  /// (e.g. a host-side enqueue) so the scheduler re-evaluates wake_cycle()
  /// instead of trusting the value cached at the last run.
  void notify_external_event() { sched_event_ = true; }

  friend class SimContext;

  // Value hookup, maintained by SimContext (set_carry_values). While false
  // the context runs a timing-only pass: a process keeps every handshake,
  // stall count, wake hint and token metadata field, and skips only the work
  // on token values — arithmetic, line-buffer and tap copies, sink stores.
  // Timing never depends on values, so the cycles are those of a
  // value-carrying run (DESIGN.md §17).
  bool carry_values_ = true;

  // Observability hookup, maintained by SimContext. While observing, the
  // context steps every process every cycle (see sim_context.hpp), so
  // obs_enabled_-gated bookkeeping inside on_clock() sees every cycle and is
  // exempt from the wake_cycle() no-op contract. obs_trace_ is non-null only
  // when a TraceSink is attached; obs_id_ is this process's entity id there.
  bool obs_enabled_ = false;
  obs::TraceSink* obs_trace_ = nullptr;
  std::uint32_t obs_id_ = 0;

 private:
  static constexpr std::uint64_t kNoClock = 0;

  std::string name_;
  const std::uint64_t* clock_ = &kNoClock;  ///< the owning context's cycle counter

  // Activity-aware scheduler bookkeeping, maintained by SimContext. The wake
  // cache is evaluated lazily: a busy process (event flag raised every cycle
  // by its FIFO commits) never pays for wake_cycle() at all; the first
  // event-free cycle computes and caches it, and the cache stays valid until
  // the process runs again (no event means the state it derives from is
  // untouched).
  bool sched_skippable_ = false;    ///< ports() non-empty
  bool sched_event_ = true;         ///< connected-FIFO transfer since last run
  bool sched_wake_valid_ = false;   ///< sched_wake_ holds a current hint
  std::uint64_t sched_wake_ = 0;    ///< lazily cached wake_cycle()
};

}  // namespace dfc::df
