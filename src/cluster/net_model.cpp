#include "cluster/net_model.hpp"

#include <utility>

#include "common/error.hpp"

namespace dfc::cluster {

NetHop::NetHop(std::string name, HopModel model) : name_(std::move(name)), model_(model) {
  model_.validate();
}

std::uint64_t NetHop::transfer(std::uint64_t ready, std::uint64_t words) {
  DFC_REQUIRE(words > 0, "network transfer needs at least one word");
  DFC_REQUIRE(ready >= last_ready_, "network transfers must be scheduled in time order");
  last_ready_ = ready;

  const auto cpw = static_cast<std::uint64_t>(model_.link.link.cycles_per_word);
  const auto eff = static_cast<std::uint64_t>(model_.link.effective_cycles_per_word());
  const std::uint64_t start = std::max(ready, busy_until_);
  // The first word of a transfer always moves at the raw serializer rate
  // (credits regenerate while the hop sits idle); sustained back-to-back
  // words pay the credit-throttled effective rate.
  const std::uint64_t occupancy = cpw + (words - 1) * eff;
  busy_until_ = start + occupancy;
  words_ += words;
  wire_cycles_ += words * cpw;
  credit_cycles_ += occupancy - words * cpw;
  return busy_until_ + static_cast<std::uint64_t>(model_.link.link.latency_cycles);
}

dfc::obs::LinkActivity NetHop::activity(std::uint64_t horizon) const {
  DFC_REQUIRE(horizon >= busy_until_, "activity horizon must cover all transfers");
  dfc::obs::LinkActivity a;
  a.wire_busy = wire_cycles_;
  a.credit_stall = credit_cycles_;
  a.rx_backpressure = 0;  // the front end / node ingress always drains
  a.idle = horizon - a.wire_busy - a.credit_stall;
  DFC_REQUIRE(a.total() == horizon, "hop activity buckets must sum to the horizon");
  return a;
}

}  // namespace dfc::cluster
