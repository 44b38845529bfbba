#include "verify/graph.hpp"

#include <unordered_map>
#include <utility>

namespace dfc::verify {

int DesignGraph::add_node(std::string name) {
  GraphNode n;
  n.name = std::move(name);
  nodes.push_back(std::move(n));
  return static_cast<int>(nodes.size()) - 1;
}

int DesignGraph::add_channel(std::string name) {
  GraphChannel c;
  c.name = std::move(name);
  channels.push_back(std::move(c));
  return static_cast<int>(channels.size()) - 1;
}

void DesignGraph::bind_producer(int channel, int node) {
  channels.at(static_cast<std::size_t>(channel)).producer = node;
  nodes.at(static_cast<std::size_t>(node)).outputs.push_back(channel);
}

void DesignGraph::bind_consumer(int channel, int node) {
  channels.at(static_cast<std::size_t>(channel)).consumer = node;
  nodes.at(static_cast<std::size_t>(node)).inputs.push_back(channel);
}

namespace {

using NodeIndex = std::unordered_map<const dfc::df::Process*, int>;

/// Appends every FIFO of `ctx` as a channel and every process as a node
/// bound through its ports; records each process's node index in `node`.
void append_context(DesignGraph& g, const dfc::df::SimContext& ctx, NodeIndex& node) {
  std::unordered_map<const dfc::df::FifoBase*, int> channel;
  for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
    channel.emplace(&ctx.fifo(i), g.add_channel(ctx.fifo(i).name()));
  }
  for (std::size_t i = 0; i < ctx.process_count(); ++i) {
    const dfc::df::Process& p = ctx.process(i);
    const int n = g.add_node(p.name());
    node.emplace(&p, n);
    const dfc::df::Ports ports = p.ports();
    for (const dfc::df::FifoBase* f : ports.inputs) g.bind_consumer(channel.at(f), n);
    for (const dfc::df::FifoBase* f : ports.outputs) g.bind_producer(channel.at(f), n);
  }
}

}  // namespace

DesignGraph graph_of(const dfc::df::SimContext& ctx) {
  DesignGraph g;
  NodeIndex node;
  append_context(g, ctx, node);
  return g;
}

DesignGraph graph_of(const dfc::mfpga::MultiFpgaAccelerator& acc) {
  DesignGraph g;
  NodeIndex node;
  for (const auto& dev : acc.devices) append_context(g, *dev.ctx, node);
  for (std::size_t i = 0; i < acc.wires.size(); ++i) {
    const int wire = g.add_channel(acc.wires[i]->name());
    g.bind_producer(wire, node.at(acc.txs[i]));
    g.bind_consumer(wire, node.at(acc.rxs[i]));
  }
  return g;
}

}  // namespace dfc::verify
