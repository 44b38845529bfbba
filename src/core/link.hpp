// Inter-FPGA link channel (paper Sec. IV-C future work: "map such enlarged
// network design onto a multi-FPGA system").
//
// A LinkChannel models a board-to-board serial transceiver (Aurora-style):
// it forwards stream flits with a fixed traversal latency and a limited
// accept rate (one word every `cycles_per_word` fabric cycles — serializer
// bandwidth below the on-chip one word per cycle). Inserted by the builder
// wherever consecutive layers are mapped to different devices.
#pragma once

#include <cstdint>
#include <deque>

#include "axis/flit.hpp"
#include "common/error.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/process.hpp"

namespace dfc::core {

struct LinkModel {
  int latency_cycles = 40;  ///< serializer + wire + deserializer traversal
  int cycles_per_word = 4;  ///< accept rate (4 => 100 MB/s at 100 MHz/32-bit)

  bool valid() const { return latency_cycles >= 1 && cycles_per_word >= 1; }
  void validate() const { DFC_REQUIRE(valid(), "invalid link model"); }
};

class LinkChannel final : public dfc::df::Process {
 public:
  LinkChannel(std::string name, LinkModel model, dfc::df::Fifo<dfc::axis::Flit>& in,
              dfc::df::Fifo<dfc::axis::Flit>& out);

  void on_clock() override;
  void reset() override;
  bool done() const override { return in_flight_.empty(); }
  std::uint64_t wake_cycle() const override;
  dfc::df::Ports ports() const override { return {{&in_}, {&out_}}; }

  std::uint64_t words_transferred() const { return words_; }

 private:
  LinkModel model_;
  dfc::df::Fifo<dfc::axis::Flit>& in_;
  dfc::df::Fifo<dfc::axis::Flit>& out_;

  struct Wire {
    std::uint64_t ready_cycle;
    dfc::axis::Flit flit;
  };
  std::deque<Wire> in_flight_;
  std::size_t in_flight_limit_;
  std::uint64_t next_accept_cycle_ = 0;
  std::uint64_t words_ = 0;
};

}  // namespace dfc::core
