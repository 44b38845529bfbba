// Port-count adapters between consecutive layers (paper Sec. IV-A).
//
// Three cases connect layer i-1 (OUT_PORTS upstream channels) to layer i
// (IN_PORTS downstream channels):
//   =  : direct FIFO connection, no adapter;
//   <  : a PortDemux fans one upstream port out to several downstream ports
//        according to the feature-map interleave;
//   >  : a PortMerge cycles reads over several upstream ports ("additional
//        innermost loop" in the paper) onto one widened downstream stream.
#pragma once

#include <cstdint>
#include <vector>

#include "axis/flit.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"

namespace dfc::sst {

/// Fans one channel-interleaved stream out to `outs.size()` ports.
///
/// The upstream port carries FMs {base, base+step, ...} interleaved per
/// pixel; downstream port p must receive the FMs that map to it under the
/// downstream round-robin rule. Because both sides use round-robin in the
/// same channel order, routing is a modulo counter over the upstream
/// interleave group.
class PortDemux final : public dfc::df::Process {
 public:
  /// `group` is the number of FMs interleaved on the upstream port; FM slot s
  /// (s in [0, group)) is routed to downstream port s % outs.size().
  PortDemux(std::string name, std::int64_t group, dfc::df::Fifo<dfc::axis::Flit>& in,
            std::vector<dfc::df::Fifo<dfc::axis::Flit>*> outs);

  void on_clock() override;
  void reset() override { slot_ = 0; }
  std::uint64_t wake_cycle() const override { return in_.can_pop() ? now() : kNeverWake; }
  dfc::df::Ports ports() const override;

 private:
  std::int64_t group_;
  dfc::df::Fifo<dfc::axis::Flit>& in_;
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> outs_;
  std::int64_t slot_ = 0;
};

/// Cycles reads over `ins.size()` upstream ports onto one downstream stream.
///
/// For each pixel, the upstream ports carry `per_port[i]` interleaved FM
/// values each; the merged stream must present all FMs of the pixel in
/// global round-robin channel order, which is achieved by reading one value
/// from each port in turn, `rounds` times (port p, slot r holds FM
/// r*ins.size()+p).
class PortMerge final : public dfc::df::Process {
 public:
  PortMerge(std::string name, std::int64_t rounds,
            std::vector<dfc::df::Fifo<dfc::axis::Flit>*> ins,
            dfc::df::Fifo<dfc::axis::Flit>& out);

  void on_clock() override;
  void reset() override {
    port_ = 0;
    round_ = 0;
  }
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override;

 private:
  std::int64_t rounds_;
  std::vector<dfc::df::Fifo<dfc::axis::Flit>*> ins_;
  dfc::df::Fifo<dfc::axis::Flit>& out_;
  std::int64_t port_ = 0;
  std::int64_t round_ = 0;
};

}  // namespace dfc::sst
