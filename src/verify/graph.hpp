// Process/FIFO graph of a design, for static analysis.
//
// The verifier's structural checks (dangling channels, duplicate names,
// unreachable stages, feedback cycles, sink demand) run on this graph.
// graph_of reads it from a design the builders really built: every process
// is a node and every FIFO a channel, bound through the processes' ports().
// So the checks see exactly the topology that runs, under the names a
// fifo_report, trace or fault plan uses. Tests also hand-assemble graphs to
// express broken topologies the builders refuse to construct.
//
// In a multi-board design each InterLinkWire is one more channel, from its
// Tx to its Rx. The wire is the forward data lane only; the credit-return
// lane is not an edge: credits are conserved, so it cannot introduce a
// deadlock cycle of its own (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/sim_context.hpp"
#include "multifpga/exec.hpp"

namespace dfc::verify {

/// One FIFO (or inter-device wire) as the analyzer sees it.
struct GraphChannel {
  std::string name;
  int producer = -1;  ///< node index; -1 = unbound (dangling input)
  int consumer = -1;  ///< node index; -1 = unbound (dangling output)
};

/// One process as the analyzer sees it.
struct GraphNode {
  std::string name;
  std::vector<int> inputs;   ///< channel indices this node consumes
  std::vector<int> outputs;  ///< channel indices this node produces
  /// For sinks: words the node insists on receiving per image (0 = n/a).
  std::int64_t demand_per_image = 0;
};

struct DesignGraph {
  std::vector<GraphNode> nodes;
  std::vector<GraphChannel> channels;
  /// Words per image the pipeline delivers to the sink, from static shape
  /// propagation (0 = unknown; hand-built graphs may leave it unset to skip
  /// the DF301 demand check).
  std::int64_t delivered_per_image = 0;

  int add_node(std::string name);
  int add_channel(std::string name);

  /// Marks `node` as the producer/consumer of `channel` and records the
  /// channel on the node's port lists.
  void bind_producer(int channel, int node);
  void bind_consumer(int channel, int node);
};

/// The graph of one built context: its processes and FIFOs in registration
/// order.
DesignGraph graph_of(const dfc::df::SimContext& ctx);

/// The graph of a built multi-board design: every device context in order,
/// then one channel per inter-device wire.
DesignGraph graph_of(const dfc::mfpga::MultiFpgaAccelerator& acc);

}  // namespace dfc::verify
