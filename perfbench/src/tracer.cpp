#include "tracer.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  const std::int32_t parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back(Span{std::string(name), now_ns(), 0, parent});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.calls;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
