#include "sst/port_adapters.hpp"

#include "common/error.hpp"

namespace dfc::sst {

using dfc::axis::Flit;

PortDemux::PortDemux(std::string name, std::int64_t group, dfc::df::Fifo<Flit>& in,
                     std::vector<dfc::df::Fifo<Flit>*> outs)
    : Process(std::move(name)), group_(group), in_(in), outs_(std::move(outs)) {
  DFC_REQUIRE(!outs_.empty(), "PortDemux needs at least one output");
  DFC_REQUIRE(group_ >= static_cast<std::int64_t>(outs_.size()),
              "PortDemux group must cover all outputs");
}

void PortDemux::on_clock() {
  if (!in_.can_pop()) return;
  auto& out = *outs_[static_cast<std::size_t>(slot_ % static_cast<std::int64_t>(outs_.size()))];
  if (!out.can_push()) {
    out.note_full_stall();
    return;
  }
  out.push(in_.pop());
  if (++slot_ == group_) slot_ = 0;
}

dfc::df::Ports PortDemux::ports() const { return {{&in_}, {outs_.begin(), outs_.end()}}; }

PortMerge::PortMerge(std::string name, std::int64_t rounds,
                     std::vector<dfc::df::Fifo<Flit>*> ins, dfc::df::Fifo<Flit>& out)
    : Process(std::move(name)), rounds_(rounds), ins_(std::move(ins)), out_(out) {
  DFC_REQUIRE(!ins_.empty(), "PortMerge needs at least one input");
  DFC_REQUIRE(rounds_ >= 1, "PortMerge rounds must be >= 1");
}

std::uint64_t PortMerge::wake_cycle() const {
  // A full output is checked before the input and stalls every cycle; with
  // room, the merge only acts once the current port has data.
  if (!out_.can_push()) return now();
  return ins_[static_cast<std::size_t>(port_)]->can_pop() ? now() : kNeverWake;
}

dfc::df::Ports PortMerge::ports() const { return {{ins_.begin(), ins_.end()}, {&out_}}; }

void PortMerge::on_clock() {
  if (!out_.can_push()) {
    out_.note_full_stall();
    return;
  }
  auto& in = *ins_[static_cast<std::size_t>(port_)];
  if (!in.can_pop()) return;
  out_.push(in.pop());
  if (++port_ == static_cast<std::int64_t>(ins_.size())) {
    port_ = 0;
    if (++round_ == rounds_) round_ = 0;
  }
}

}  // namespace dfc::sst
