#include "verify/verifier.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "dse/throughput_model.hpp"

namespace dfc::verify {

using dfc::core::BuildOptions;
using dfc::core::NetworkSpec;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A finding that is an error whatever its code's default severity: the
/// builders cannot construct the design.
Diagnostic error(Code code, std::string where, std::string what) {
  Diagnostic d(code, std::move(where), std::move(what));
  d.severity = Severity::kError;
  return d;
}

std::string fmt_units(double v) {
  std::ostringstream os;
  os << static_cast<std::int64_t>(v + 0.5);
  return os.str();
}

// --- rate consistency (Eq. 4) ------------------------------------------------

/// Emits DF201/DF202/DF203 and returns the design interval: the Eq. 4 max
/// over dse::estimate_timing's stages, link stages at every device boundary
/// included. Requires a spec with no check_spec findings.
std::int64_t check_rates(const NetworkSpec& spec, const BuildOptions& options,
                         const std::vector<std::size_t>& layer_device, int credits,
                         std::vector<Diagnostic>& out) {
  // FIFO depth sufficiency: under the two-phase update a push lands at the
  // end of the cycle, so a capacity-1 channel cannot hold one word in flight
  // while the producer prepares the next — every transfer alternates with a
  // full-stall cycle, halving the rate Eq. 4 assumes. Capacity 0 can never
  // transfer at all.
  const auto check_capacity = [&](std::size_t cap, const char* which) {
    if (cap == 0) {
      out.push_back(error(Code::DF201, which, "capacity 0 channel can never transfer a word"));
    } else if (cap < 2) {
      out.push_back({Code::DF201, which,
                     "capacity " + std::to_string(cap) +
                         " halves the sustained rate under the two-phase FIFO update; "
                         "use a depth of at least 2"});
    }
  };
  check_capacity(options.stream_fifo_capacity, "stream-fifo");
  check_capacity(options.window_fifo_capacity, "window-fifo");
  if (options.dma_cycles_per_word < 1) {
    out.push_back(error(Code::DF201, "dma", "DMA rate must be at least 1 cycle per word"));
  }
  const bool link_ok = options.link.valid();
  if (!layer_device.empty() && !link_ok) {
    out.push_back(error(Code::DF202, "interlink",
                        "link latency and cycles per word must be at least 1"));
  }

  const dfc::core::InterLinkModel link{options.link, credits};
  const dse::TimingEstimate est = dse::estimate_timing(spec, layer_device, link);

  // Credit window vs round trip: below ceil(2*latency/cpw)+2 the Tx idles
  // waiting for returns and the serializer cannot sustain its rate (the
  // conservation argument in core/interlink.hpp).
  if (!layer_device.empty() && link_ok && credits > 0) {
    const int needed = dfc::core::InterLinkModel{options.link, 0}.effective_credits();
    if (credits < needed) {
      out.push_back({Code::DF203, "interlink",
                     "credit window " + std::to_string(credits) +
                         " is below the full round trip (" + std::to_string(needed) +
                         " credits); the link throttles to one word per " +
                         std::to_string(link.effective_cycles_per_word()) + " cycles"});
    }
  }

  // The link stages follow dma-out; each one that is slower than every stage
  // before it throttles the design.
  const auto links = est.stages.begin() + static_cast<std::ptrdiff_t>(spec.layers.size() + 2);
  std::int64_t interval = 0;
  for (auto it = est.stages.begin(); it != links; ++it) {
    interval = std::max(interval, it->cycles_per_image);
  }
  for (auto it = links; it != est.stages.end(); ++it) {
    if (it->cycles_per_image > interval) {
      out.push_back({Code::DF202, it->name,
                     "link sustains " + std::to_string(it->cycles_per_image) +
                         " cycles/image, throttling the compute interval of " +
                         std::to_string(interval)});
    }
    interval = std::max(interval, it->cycles_per_image);
  }
  return est.interval_cycles;
}

// --- resource budget (Table I) -----------------------------------------------

void check_budget(const NetworkSpec& spec, const std::vector<std::size_t>& layer_device,
                  std::size_t num_devices, const VerifyOptions& vopts,
                  std::vector<Diagnostic>& out) {
  const auto usage = dfc::hw::usage_per_device(spec, layer_device, num_devices, vopts.cost_model);
  const dfc::hw::Device& dev = vopts.device;
  for (std::size_t d = 0; d < num_devices; ++d) {
    const dfc::hw::ResourceUsage& u = usage[d];
    const std::string entity = "fpga" + std::to_string(d);
    std::string over;
    const auto flag = [&](const char* res, double used, double avail) {
      if (used > avail) {
        if (!over.empty()) over += ", ";
        over += std::string(res) + " " + fmt_units(used) + "/" + fmt_units(avail);
      }
    };
    flag("lut", u.lut, dev.luts);
    flag("ff", u.ff, dev.ffs);
    flag("bram36", u.bram36, dev.bram36);
    flag("dsp", u.dsp, dev.dsps);
    if (!over.empty()) {
      out.push_back({Code::DF401, entity,
                     "exceeds " + dev.name + " budget: " + over});
      continue;
    }
    const dfc::hw::ResourceUsage frac = dev.utilization(u);
    const double worst = std::max({frac.lut, frac.ff, frac.bram36, frac.dsp});
    if (worst > vopts.headroom_warn_fraction) {
      out.push_back({Code::DF402, entity,
                     "peak utilization " + fmt_units(worst * 100.0) + "% of " + dev.name +
                         " is above the " + fmt_units(vopts.headroom_warn_fraction * 100.0) +
                         "% headroom threshold"});
    }
  }
}

}  // namespace

// --- graph checks (DF0xx, DF3xx) ---------------------------------------------

VerifyReport verify_graph(const DesignGraph& graph) {
  VerifyReport r;
  r.channels_checked = graph.channels.size();
  r.stages_checked = graph.nodes.size();
  auto& out = r.diagnostics;

  // DF003: duplicate channel / process names (one shared namespace, same as
  // SimContext's find_fifo/trace entities).
  {
    std::vector<std::string> names;
    names.reserve(graph.channels.size() + graph.nodes.size());
    for (const auto& c : graph.channels) names.push_back(c.name);
    for (const auto& n : graph.nodes) names.push_back(n.name);
    std::sort(names.begin(), names.end());
    for (std::size_t i = 1; i < names.size(); ++i) {
      if (names[i] == names[i - 1] && (i == 1 || names[i] != names[i - 2])) {
        out.push_back({Code::DF003, names[i], "duplicate channel or process name"});
      }
    }
  }

  // DF001 / DF002: unbound channel endpoints.
  for (const auto& c : graph.channels) {
    if (c.producer < 0) {
      out.push_back({Code::DF001, c.name,
                     "channel has no producer; any consumer starves forever"});
    }
    if (c.consumer < 0) {
      out.push_back({Code::DF002, c.name,
                     "channel has no consumer; it fills up and wedges its producer"});
    }
  }

  // DF004: stages unreachable from any source (a node with no inputs).
  {
    std::vector<char> reached(graph.nodes.size(), 0);
    std::vector<int> work;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (graph.nodes[n].inputs.empty()) {
        reached[n] = 1;
        work.push_back(static_cast<int>(n));
      }
    }
    while (!work.empty()) {
      const int n = work.back();
      work.pop_back();
      for (int ch : graph.nodes[static_cast<std::size_t>(n)].outputs) {
        const int m = graph.channels[static_cast<std::size_t>(ch)].consumer;
        if (m >= 0 && !reached[static_cast<std::size_t>(m)]) {
          reached[static_cast<std::size_t>(m)] = 1;
          work.push_back(m);
        }
      }
    }
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (!reached[n]) {
        out.push_back({Code::DF004, graph.nodes[n].name,
                       "stage is unreachable from any source; it never sees data"});
      }
    }
  }

  // DF302: channel cycles. Every FIFO starts empty, so a cycle means every
  // process on it waits for data that can only come from the cycle itself —
  // a guaranteed circular wait once the feedback path is exercised.
  {
    enum : char { kWhite, kGrey, kBlack };
    std::vector<char> color(graph.nodes.size(), kWhite);
    // Iterative DFS; on a grey->grey edge, report the channel closing the cycle.
    struct Frame {
      int node;
      std::size_t next_out = 0;
    };
    for (std::size_t root = 0; root < graph.nodes.size(); ++root) {
      if (color[root] != kWhite) continue;
      std::vector<Frame> stack{{static_cast<int>(root)}};
      color[root] = kGrey;
      while (!stack.empty()) {
        Frame& f = stack.back();
        const auto& outputs = graph.nodes[static_cast<std::size_t>(f.node)].outputs;
        if (f.next_out >= outputs.size()) {
          color[static_cast<std::size_t>(f.node)] = kBlack;
          stack.pop_back();
          continue;
        }
        const int ch = outputs[f.next_out++];
        const int m = graph.channels[static_cast<std::size_t>(ch)].consumer;
        if (m < 0) continue;
        if (color[static_cast<std::size_t>(m)] == kGrey) {
          out.push_back({Code::DF302, graph.channels[static_cast<std::size_t>(ch)].name,
                         "channel closes a feedback cycle through " +
                             graph.nodes[static_cast<std::size_t>(m)].name +
                             "; FIFOs start empty, so the loop deadlocks on first use"});
        } else if (color[static_cast<std::size_t>(m)] == kWhite) {
          color[static_cast<std::size_t>(m)] = kGrey;
          stack.push_back({m});
        }
      }
    }
  }

  // DF301: a sink that insists on more words per image than the pipeline
  // statically delivers waits forever on the missing tail.
  if (graph.delivered_per_image > 0) {
    for (const auto& n : graph.nodes) {
      if (n.demand_per_image > graph.delivered_per_image) {
        out.push_back({Code::DF301, n.name,
                       "sink demands " + std::to_string(n.demand_per_image) +
                           " words/image but the pipeline delivers " +
                           std::to_string(graph.delivered_per_image)});
      }
    }
  }
  return r;
}

// --- top-level entry points --------------------------------------------------

namespace {

void append(VerifyReport& r, std::vector<Diagnostic> ds) {
  for (auto& d : ds) r.diagnostics.push_back(std::move(d));
}

/// Appends core::check_partition's finding; true when the cut is legal.
bool check_partition(VerifyReport& r, const NetworkSpec& spec,
                     const std::vector<std::size_t>& layer_device, bool require_monotone) {
  std::vector<Diagnostic> ds = dfc::core::check_partition(spec, layer_device, require_monotone);
  const bool ok = ds.empty();
  append(r, std::move(ds));
  return ok;
}

/// False when a rate finding already in the report means the builder
/// cannot construct the design: a capacity-0 FIFO or a DMA rate below one
/// cycle per word (DF201), an invalid link model (DF202) or a negative
/// credit window (DF203).
bool buildable(const VerifyReport& r) {
  return std::none_of(r.diagnostics.begin(), r.diagnostics.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError &&
           (d.code == Code::DF201 || d.code == Code::DF202 || d.code == Code::DF203);
  });
}

/// Runs the graph checks on the graph of a built design. The sink's demand
/// is the word count the built DmaSink waits for; the delivery is the
/// spec's output volume from static shape propagation.
void check_graph(VerifyReport& r, DesignGraph graph, const NetworkSpec& spec,
                 const dfc::core::DmaSink& sink) {
  for (GraphNode& n : graph.nodes) {
    if (n.name == sink.name()) n.demand_per_image = sink.values_per_image();
  }
  graph.delivered_per_image = spec.num_outputs();
  VerifyReport g = verify_graph(graph);
  r.channels_checked = g.channels_checked;
  r.stages_checked = g.stages_checked;
  append(r, std::move(g.diagnostics));
}

}  // namespace

VerifyReport verify_design(const NetworkSpec& spec, const BuildOptions& options,
                           const VerifyOptions& vopts) {
  VerifyReport r;
  r.design = spec.name;

  r.diagnostics = dfc::core::check_spec(spec);
  const bool shapes_ok = r.diagnostics.empty();

  const bool partition_ok =
      options.layer_device.empty() ||
      check_partition(r, spec, options.layer_device, /*require_monotone=*/false);
  const std::vector<std::size_t> layer_device =
      partition_ok ? options.layer_device : std::vector<std::size_t>{};
  r.devices = 1;
  for (std::size_t d : layer_device) r.devices = std::max(r.devices, d + 1);

  if (!shapes_ok) return r;  // rate/graph/budget math is meaningless on broken shapes

  r.predicted_interval_cycles =
      check_rates(spec, options, layer_device, /*credits=*/0, r.diagnostics);
  if (partition_ok && buildable(r)) {
    try {
      const dfc::core::Accelerator acc = dfc::core::build_accelerator(spec, options);
      check_graph(r, graph_of(*acc.ctx), spec, *acc.sink);
    } catch (const VerifyError& e) {
      append(r, e.diagnostics());
    }
  }
  check_budget(spec, layer_device, r.devices, vopts, r.diagnostics);
  return r;
}

VerifyReport verify_design_multi(const NetworkSpec& spec,
                                 const std::vector<std::size_t>& layer_device,
                                 const BuildOptions& options, int link_credits,
                                 const VerifyOptions& vopts) {
  VerifyReport r;
  r.design = spec.name;

  r.diagnostics = dfc::core::check_spec(spec);
  const bool shapes_ok = r.diagnostics.empty();

  const bool partition_ok = check_partition(r, spec, layer_device, /*require_monotone=*/true);
  r.devices = 1;
  if (partition_ok) {
    for (std::size_t d : layer_device) r.devices = std::max(r.devices, d + 1);
  }
  if (link_credits < 0) {
    r.diagnostics.push_back(error(Code::DF203, "interlink", "credit count must be non-negative"));
  }
  if (!shapes_ok || !partition_ok) return r;

  r.predicted_interval_cycles =
      check_rates(spec, options, layer_device, link_credits, r.diagnostics);
  if (buildable(r)) {
    try {
      const dfc::mfpga::MultiFpgaAccelerator acc =
          dfc::mfpga::build_multi_fpga(spec, layer_device, options, link_credits);
      check_graph(r, graph_of(acc), spec, *acc.sink);
    } catch (const VerifyError& e) {
      append(r, e.diagnostics());
    }
  }
  check_budget(spec, layer_device, r.devices, vopts, r.diagnostics);
  return r;
}

// --- report rendering --------------------------------------------------------

std::size_t VerifyReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t VerifyReport::warnings() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kWarning; }));
}

bool VerifyReport::has(Code code) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

std::string VerifyReport::render() const {
  std::ostringstream os;
  os << "verify '" << design << "': " << devices << " device(s), " << stages_checked
     << " stage(s), " << channels_checked << " channel(s), predicted interval "
     << predicted_interval_cycles << " cycles/image\n";
  for (const Diagnostic& d : diagnostics) os << "  " << d.str() << "\n";
  if (diagnostics.empty()) {
    os << "  clean: no diagnostics\n";
  } else {
    os << "  " << errors() << " error(s), " << warnings() << " warning(s)\n";
  }
  return os.str();
}

std::string VerifyReport::to_json() const {
  std::ostringstream os;
  os << "{\"design\": \"" << json_escape(design) << "\", \"devices\": " << devices
     << ", \"predicted_interval_cycles\": " << predicted_interval_cycles
     << ", \"stages\": " << stages_checked << ", \"channels\": " << channels_checked
     << ", \"errors\": " << errors() << ", \"warnings\": " << warnings()
     << ", \"clean\": " << (clean() ? "true" : "false") << ", \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) os << ", ";
    os << "{\"code\": \"" << code_name(d.code) << "\", \"severity\": \""
       << severity_name(d.severity) << "\", \"entity\": \"" << json_escape(d.entity)
       << "\", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

void VerifyReport::throw_if_errors() const {
  std::vector<Diagnostic> errs;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) errs.push_back(d);
  }
  if (!errs.empty()) throw VerifyError(std::move(errs));
}

}  // namespace dfc::verify
