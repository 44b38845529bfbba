#include "multifpga/exec.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "verify/diagnostics.hpp"

namespace dfc::mfpga {

using dfc::axis::Flit;
using dfc::core::BatchResult;
using dfc::core::RunStatus;
using dfc::df::Fifo;
using dfc::df::SimContext;

namespace {

// Lockstepped contexts must never trip their private idle watchdogs (the
// harness owns the global one) nor clamp a coordinated fast-forward jump
// shorter than the common target — both would desynchronise the clocks.
constexpr std::uint64_t kDeviceIdleLimit = 1'000'000'000'000ULL;

std::string device_prefix(std::size_t d) { return "fpga" + std::to_string(d) + "."; }

}  // namespace

std::uint64_t MultiFpgaAccelerator::link_words_transferred() const {
  std::uint64_t total = 0;
  for (const auto& w : wires) total += w->words_transferred();
  return total;
}

MultiFpgaAccelerator build_multi_fpga(const dfc::core::NetworkSpec& spec,
                                      const std::vector<std::size_t>& layer_device,
                                      const dfc::core::BuildOptions& options,
                                      int link_credits) {
  spec.validate();
  dfc::verify::throw_if_any(
      dfc::core::check_partition(spec, layer_device, /*require_monotone=*/true));

  MultiFpgaAccelerator acc;
  acc.spec = spec;
  acc.options = options;
  acc.layer_device = layer_device;
  acc.link = dfc::core::InterLinkModel{options.link, link_credits};
  acc.link.validate();

  // One DeviceSim per maximal same-device layer run, in pipeline order.
  std::size_t li = 0;
  while (li < spec.layers.size()) {
    std::size_t seg_end = li + 1;
    while (seg_end < spec.layers.size() && layer_device[seg_end] == layer_device[li]) {
      ++seg_end;
    }
    DeviceSim dev;
    dev.device = acc.devices.size();
    dev.first_layer = li;
    dev.last_layer = seg_end;
    dev.ctx = std::make_unique<SimContext>();
    dev.ctx->set_idle_limit(kDeviceIdleLimit);
    acc.devices.push_back(std::move(dev));
    li = seg_end;
  }

  const std::size_t num_devices = acc.devices.size();
  DeviceSim& first = acc.devices.front();

  // DMA MM2S endpoint on the first device (its own bus arbiter: boards do
  // not share a DMA; when the design collapses to one device the source and
  // sink contend on that single bus exactly like the single-device builder).
  if (options.dma_shared_bus) {
    first.bus = std::make_unique<dfc::core::DmaBus>(options.dma_cycles_per_word);
  }
  auto& dma_in = first.ctx->add_fifo<Flit>(device_prefix(0) + "dma.in",
                                           options.stream_fifo_capacity);
  acc.source = &first.ctx->add_process<dfc::core::DmaSource>(
      device_prefix(0) + "dma.source", dma_in, spec.input_shape, options.dma_cycles_per_word,
      first.bus.get());
  if (first.bus) first.bus->attach_source(acc.source);

  dfc::core::SegmentStreams cur{{&dma_in}, spec.input_shape};

  for (std::size_t d = 0; d < num_devices; ++d) {
    DeviceSim& dev = acc.devices[d];
    if (d > 0) {
      // Boundary crossing: one Tx/wire/Rx triple per stream port. The Tx
      // drains the upstream segment's output FIFO; the Rx fills a fresh
      // ingress FIFO on this device.
      DeviceSim& up = acc.devices[d - 1];
      const std::string lname = "L" + std::to_string(dev.first_layer);
      std::vector<Fifo<Flit>*> linked;
      linked.reserve(cur.streams.size());
      for (std::size_t p = 0; p < cur.streams.size(); ++p) {
        auto wire = std::make_unique<dfc::core::InterLinkWire>(
            lname + ".wire" + std::to_string(p), acc.link);
        auto& ingress = dev.ctx->add_fifo<Flit>(
            device_prefix(d) + lname + ".xfpga" + std::to_string(p),
            options.stream_fifo_capacity);
        auto& tx = up.ctx->add_process<dfc::core::InterLinkTx>(
            device_prefix(d - 1) + lname + ".tx" + std::to_string(p), *cur.streams[p], *wire);
        auto& rx = dev.ctx->add_process<dfc::core::InterLinkRx>(
            device_prefix(d) + lname + ".rx" + std::to_string(p), *wire, ingress);
        wire->bind(&tx, &rx);
        acc.txs.push_back(&tx);
        acc.rxs.push_back(&rx);
        acc.wires.push_back(std::move(wire));
        linked.push_back(&ingress);
      }
      cur.streams = std::move(linked);
    }
    cur = dfc::core::append_layer_segment(*dev.ctx, spec, dev.first_layer, dev.last_layer,
                                          std::move(cur), options, device_prefix(d),
                                          dev.cores);
  }

  // DMA S2MM endpoint on the last device.
  DeviceSim& last = acc.devices.back();
  if (options.dma_shared_bus && num_devices > 1) {
    last.bus = std::make_unique<dfc::core::DmaBus>(options.dma_cycles_per_word);
  }
  const std::string sink_prefix = device_prefix(num_devices - 1);
  cur.streams = dfc::core::adapt_stream_ports(*last.ctx, sink_prefix + "dma",
                                              std::move(cur.streams), cur.shape.c, 1,
                                              options.stream_fifo_capacity);
  acc.sink = &last.ctx->add_process<dfc::core::DmaSink>(
      sink_prefix + "dma.sink", *cur.streams[0], cur.shape.volume(),
      options.dma_cycles_per_word, last.bus.get());
  if (last.bus) last.bus->attach_sink(acc.sink);
  return acc;
}

MultiFpgaHarness::MultiFpgaHarness(MultiFpgaAccelerator acc) : acc_(std::move(acc)) {
  trackers_.resize(acc_.wires.size());
}

void MultiFpgaHarness::reset() {
  for (auto& dev : acc_.devices) {
    dev.ctx->reset();
    dev.ctx->reset_fifo_stats();
    // A DmaSource resets only the bus it drives; the last board's bus serves
    // just the sink, so without this its pacing survives into the next batch.
    if (dev.bus) dev.bus->reset();
  }
  for (auto& w : acc_.wires) w->reset();
  for (auto& t : trackers_) t.reset();
  link_cycles_ = 0;
}

dfc::df::FifoBase* MultiFpgaHarness::find_fifo(const std::string& name) {
  for (auto& dev : acc_.devices) {
    if (dfc::df::FifoBase* f = dev.ctx->find_fifo(name)) return f;
  }
  return nullptr;
}

std::string MultiFpgaHarness::fifo_report() const {
  std::string report;
  for (const auto& dev : acc_.devices) {
    report += "device " + std::to_string(dev.device) + " (layers " +
              std::to_string(dev.first_layer) + ".." + std::to_string(dev.last_layer - 1) +
              "):\n" + dev.ctx->fifo_report();
  }
  const std::uint64_t now = acc_.devices.front().ctx->cycle();
  if (!acc_.wires.empty()) {
    report += "interlink channels (" + std::to_string(acc_.wires.size()) + " wires):\n";
  }
  auto fifo_line = [](const char* role, const dfc::df::FifoBase& f) {
    const dfc::df::FifoStats& st = f.lifetime_stats();
    return std::string("    ") + role + " " + f.name() + ": " + std::to_string(f.size()) +
           "/" + std::to_string(f.capacity()) + " (pushes=" + std::to_string(st.pushes) +
           " pops=" + std::to_string(st.pops) + " max=" + std::to_string(st.max_occupancy) +
           " full_stalls=" + std::to_string(st.full_stall_cycles) +
           " empty_stalls=" + std::to_string(st.empty_stall_cycles) + ")\n";
  };
  for (std::size_t i = 0; i < acc_.wires.size(); ++i) {
    const auto& w = *acc_.wires[i];
    report += "  wire " + w.name() + ": words=" + std::to_string(w.words_transferred()) +
              " credits=" + std::to_string(w.credits_available(now)) + "/" +
              std::to_string(w.model().effective_credits()) +
              " tx_credit_stalls=" + std::to_string(acc_.txs[i]->credit_stall_cycles()) +
              (w.idle(now) ? "" : " (in flight)") + "\n";
    // The boundary FIFOs either side of the wire, with the same stall columns
    // as the per-device tables: the Tx drains the upstream egress FIFO, the
    // Rx fills the downstream ingress FIFO.
    report += fifo_line("tx_fifo", acc_.txs[i]->input());
    report += fifo_line("rx_fifo", acc_.rxs[i]->output());
  }
  if (link_cycles_ > 0) {
    report += "interlink attribution (" + std::to_string(link_cycles_) + " cycles):\n";
    for (std::size_t i = 0; i < acc_.wires.size(); ++i) {
      const obs::LinkActivity& a = trackers_[i].counts();
      report += "  " + acc_.wires[i]->name() + ": wire_busy=" + std::to_string(a.wire_busy) +
                " credit_stall=" + std::to_string(a.credit_stall) +
                " rx_backpressure=" + std::to_string(a.rx_backpressure) +
                " idle=" + std::to_string(a.idle) + "\n";
    }
  }
  return report;
}

void MultiFpgaHarness::attach_traces(const std::vector<obs::TraceSink*>& sinks) {
  DFC_REQUIRE(sinks.size() == acc_.devices.size(),
              "attach_traces needs exactly one sink per device");
  for (std::size_t d = 0; d < sinks.size(); ++d) {
    acc_.devices[d].ctx->attach_trace(sinks[d]);
  }
}

void MultiFpgaHarness::detach_traces() {
  for (auto& dev : acc_.devices) dev.ctx->attach_trace(nullptr);
}

void MultiFpgaHarness::attach_link_trace(obs::TraceSink* sink) {
  DFC_REQUIRE(sink != nullptr, "attach_link_trace needs a sink (detach_link_trace to stop)");
  DFC_REQUIRE(link_trace_ == nullptr, "a link trace sink is already attached");
  link_trace_ = sink;
  link_ids_.clear();
  link_ids_.reserve(acc_.wires.size());
  for (const auto& w : acc_.wires) {
    link_ids_.push_back(sink->register_entity(w->name(), obs::EntityKind::kLink));
  }
  link_attr_ = true;
}

void MultiFpgaHarness::detach_link_trace() {
  link_trace_ = nullptr;
  link_ids_.clear();
}

void MultiFpgaHarness::classify_links(std::uint64_t now) {
  for (std::size_t i = 0; i < acc_.wires.size(); ++i) {
    const dfc::core::InterLinkWire& wire = *acc_.wires[i];
    const dfc::core::InterLinkTx& tx = *acc_.txs[i];
    const dfc::core::InterLinkRx& rx = *acc_.rxs[i];
    const int credits = wire.credits_available(now);

    // Priority rx_backpressure > credit_stall > wire_busy: exactly one bucket
    // per cycle, so the per-link splits sum to link_observed_cycles().
    obs::LinkState s = obs::LinkState::kIdle;
    if (rx.backpressured(now)) {
      s = obs::LinkState::kRxBackpressure;
    } else if (tx.wants_send(now) && credits <= 0) {
      s = obs::LinkState::kCreditStall;
    } else if (tx.wants_send(now) || tx.serializing(now) || wire.has_data()) {
      s = obs::LinkState::kWireBusy;
    }
    obs::TraceSink* trace = link_trace_;
    const std::uint32_t id = link_ids_.empty() ? 0 : link_ids_[i];
    trackers_[i].tick(s, now, trace, id);
    trackers_[i].credits(static_cast<std::uint32_t>(credits < 0 ? 0 : credits), now, trace, id);
  }
  ++link_cycles_;
}

void MultiFpgaHarness::enable_integrity_guards(dfc::df::FaultListener* listener,
                                               float range_bound) {
  for (auto& dev : acc_.devices) dev.ctx->enable_integrity_guards(listener, range_bound);
}

void MultiFpgaHarness::disable_integrity_guards() {
  for (auto& dev : acc_.devices) dev.ctx->disable_integrity_guards();
}

BatchResult MultiFpgaHarness::collect(std::size_t requested) const {
  BatchResult r;
  r.start_cycle = 0;
  r.requested = requested;
  r.inject_cycles = acc_.source->inject_cycles();
  r.completion_cycles = acc_.sink->completion_cycles();
  r.outputs = acc_.sink->outputs();
  r.end_cycle = r.completion_cycles.empty() ? 0 : r.completion_cycles.back();
  return r;
}

bool MultiFpgaHarness::payloads_watched() const {
  for (const auto& dev : acc_.devices) {
    if (dev.ctx->payloads_read()) return true;
  }
  return acc_.sink->stream_guard_enabled();
}

void MultiFpgaHarness::set_carry_values(bool on) {
  for (auto& dev : acc_.devices) dev.ctx->set_carry_values(on);
}

BatchResult MultiFpgaHarness::run_batch(const std::vector<Tensor>& images,
                                        std::uint64_t max_cycles) {
  DFC_REQUIRE(!images.empty(), "run_batch needs at least one image");
  return run(&images, images.size(), max_cycles);
}

BatchResult MultiFpgaHarness::run_timing(std::size_t n, std::uint64_t max_cycles) {
  DFC_REQUIRE(n > 0, "run_timing needs at least one image");
  return run(nullptr, n, max_cycles);
}

BatchResult MultiFpgaHarness::run(const std::vector<Tensor>* images, std::size_t n,
                                  std::uint64_t max_cycles) {
  reset();
  // As in AcceleratorHarness::run_engine: a timing-only run drops the value
  // work unless a payload reader is attached, and then streams zero images.
  const bool blank = images == nullptr && !payloads_watched();
  set_carry_values(!blank);
  if (blank) {
    acc_.source->enqueue_blank(n);
  } else if (images == nullptr) {
    const Tensor zero(acc_.spec.input_shape);
    for (std::size_t i = 0; i < n; ++i) acc_.source->enqueue(zero);
  } else {
    for (const Tensor& img : *images) acc_.source->enqueue(img);
  }
  const std::size_t want = n;

  RunStatus status = RunStatus::kOk;
  std::string error;
  std::uint64_t global_idle = 0;

  while (acc_.sink->images_completed() < want) {
    const std::uint64_t now = acc_.devices.front().ctx->cycle();
    if (now >= max_cycles) {
      status = RunStatus::kTimeout;
      error = "multi-FPGA run exceeded " + std::to_string(max_cycles) + " cycles\n" +
              fifo_report();
      break;
    }

    // Link attribution reads the start-of-cycle Tx/wire/Rx state: it is the
    // same on every lockstep schedule, and classifying before the step means
    // one classification per global cycle actually executed.
    if (link_attr_) classify_links(now);

    // One global cycle: every device steps once. Link latency >= 1
    // guarantees nothing sent this cycle is visible before the next, so the
    // order of this loop cannot influence results.
    bool any_active = false;
    for (auto& dev : acc_.devices) {
      dev.ctx->step();
      if (dev.ctx->idle_cycles() == 0) any_active = true;
    }
    global_idle = any_active ? 0 : global_idle + 1;
    if (global_idle > idle_limit_) {
      status = RunStatus::kDeadlock;
      error = "deadlock: no FIFO activity on any device for " + std::to_string(global_idle) +
              " cycles at cycle " + std::to_string(acc_.devices.front().ctx->cycle()) + "\n" +
              fifo_report();
      break;
    }
    if (!any_active && !link_attr_) {
      // Coordinated fast-forward: only jump when every device can, and only
      // to a cycle no device (or link endpoint, via the Tx/Rx wake hints)
      // wants to act before. Clamped so the global watchdog and the cycle
      // budget fire at exactly the cycles lockstep stepping would reach.
      std::uint64_t target = dfc::df::Process::kNeverWake;
      bool can_jump = true;
      for (auto& dev : acc_.devices) {
        const std::uint64_t wake = dev.ctx->fast_forward_candidate();
        if (wake == 0) {
          can_jump = false;
          break;
        }
        target = std::min(target, wake);
      }
      if (can_jump) {
        const std::uint64_t here = acc_.devices.front().ctx->cycle();
        const std::uint64_t idle_left =
            idle_limit_ >= global_idle ? idle_limit_ - global_idle + 1 : 0;
        if (idle_left < target - here) target = here + idle_left;
        if (max_cycles < target) target = max_cycles;
        if (target > here) {
          for (auto& dev : acc_.devices) {
            dev.ctx->fast_forward(target);
            DFC_ASSERT(dev.ctx->cycle() == target,
                       "multi-FPGA fast-forward desynchronised device clocks");
          }
          global_idle += target - here;
          if (global_idle > idle_limit_) {
            status = RunStatus::kDeadlock;
            error = "deadlock: no FIFO activity on any device for " +
                    std::to_string(global_idle) + " cycles at cycle " +
                    std::to_string(target) + "\n" + fifo_report();
            break;
          }
        }
      }
    }
  }

  set_carry_values(true);

  BatchResult r = collect(n);
  if (images == nullptr) r.outputs.clear();
  r.status = status;
  r.error = std::move(error);
  if (!r.ok()) r.end_cycle = acc_.devices.front().ctx->cycle();
  return r;
}

std::vector<float> MultiFpgaHarness::run_image(const Tensor& image) {
  const BatchResult r = run_batch({image});
  DFC_CHECK(r.ok(), std::string("run_image did not complete: ") +
                        dfc::core::run_status_name(r.status));
  return r.outputs.front();
}

void merge_traces(const std::vector<const obs::TraceSink*>& sinks, obs::TraceSink& out) {
  DFC_REQUIRE(out.entities().empty() && out.events().empty(),
              "merge_traces needs a fresh output sink");
  std::vector<std::uint32_t> base;
  base.reserve(sinks.size());
  for (const obs::TraceSink* sink : sinks) {
    base.push_back(static_cast<std::uint32_t>(out.entities().size()));
    for (const obs::TraceEntity& e : sink->entities()) {
      out.register_entity(e.name, e.kind, e.capacity);
    }
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    for (const obs::TraceEvent& ev : sinks[i]->events()) {
      out.record(ev.entity + base[i], ev.kind, ev.cycle, ev.value);
    }
  }
}

}  // namespace dfc::mfpga
