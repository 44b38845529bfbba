#include "calibration.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>

#include "tracer.hpp"

namespace perfbench {

namespace {

// Keeps the kernels' results alive, so the compiler cannot drop their work.
volatile std::uint64_t g_sink = 0;

/// Eight independent xorshift lanes: wide integer work with no memory traffic.
std::uint64_t lanes() {
  std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 150'000; ++i) {
    for (std::uint64_t& x : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
  }
  std::uint64_t s = 0;
  for (std::uint64_t x : a) s += x;
  return s;
}

/// Sorts a copy of fixed random keys: data-dependent branches and moves.
std::uint64_t sort_keys() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> v(1 << 14);
    std::mt19937 g(3);
    for (std::uint32_t& x : v) x = static_cast<std::uint32_t>(g());
    return v;
  }();
  std::vector<std::uint32_t> v = keys;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Hash-map lookups over a table larger than the first-level caches
/// (about 1 MB, so it adds little to peak_rss_mb).
std::uint64_t hash_lookups() {
  static const std::unordered_map<std::uint64_t, std::uint64_t> table = [] {
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    std::mt19937_64 g(4);
    for (std::uint64_t i = 0; i < (1 << 15); ++i) m[g() % (1 << 17)] = i;
    return m;
  }();
  std::mt19937_64 g(5);
  std::uint64_t s = 0;
  for (int i = 0; i < 30'000; ++i) {
    const auto it = table.find(g() % (1 << 17));
    if (it != table.end()) s += it->second;
  }
  return s;
}

/// A discrete-event loop: pop the earliest event, schedule its successor.
std::uint64_t event_heap() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
  std::mt19937 g(6);
  for (std::uint32_t i = 0; i < 2048; ++i) q.push({g() % 1000, i});
  std::uint64_t now = 0;
  for (int i = 0; i < 15'000; ++i) {
    const Event e = q.top();
    q.pop();
    now = e.first;
    q.push({now + 1 + g() % 1000, e.second});
  }
  return now;
}

/// Virtual dispatch over many small objects of several classes, each
/// updating a shared table (the shape of a cycle-stepped simulator).
struct Process {
  virtual ~Process() = default;
  virtual void step(std::vector<std::uint32_t>& cells) = 0;
};

template <std::uint32_t K>
struct Stepper final : Process {
  std::uint32_t state = K;
  void step(std::vector<std::uint32_t>& cells) override {
    std::uint32_t& c = cells[(state * K) & 1023];
    if ((c & 1) != 0) {
      c += K;
      state ^= c;
    } else {
      c >>= 1;
      state += K;
    }
  }
};

std::uint64_t dispatch() {
  static const std::vector<std::unique_ptr<Process>> procs = [] {
    std::vector<std::unique_ptr<Process>> v;
    std::mt19937 g(7);
    for (int i = 0; i < 2048; ++i) {
      switch (g() % 8) {
        case 0: v.push_back(std::make_unique<Stepper<1>>()); break;
        case 1: v.push_back(std::make_unique<Stepper<3>>()); break;
        case 2: v.push_back(std::make_unique<Stepper<5>>()); break;
        case 3: v.push_back(std::make_unique<Stepper<7>>()); break;
        case 4: v.push_back(std::make_unique<Stepper<11>>()); break;
        case 5: v.push_back(std::make_unique<Stepper<13>>()); break;
        case 6: v.push_back(std::make_unique<Stepper<17>>()); break;
        default: v.push_back(std::make_unique<Stepper<19>>()); break;
      }
    }
    return v;
  }();
  std::vector<std::uint32_t> cells(1024, 5);
  for (int round = 0; round < 40; ++round) {
    for (const std::unique_ptr<Process>& p : procs) p->step(cells);
  }
  return cells[3];
}

std::uint64_t kernel() { return lanes() + sort_keys() + hash_lookups() + event_heap() + dispatch(); }

}  // namespace

double calibration_sample_ms() {
  // The first pass brings the kernel's data back into the caches, so the
  // timed pass does not depend on what the workload left there.
  g_sink = kernel();
  const std::int64_t t0 = now_ns();
  g_sink = kernel();
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

double HostSpeed::median_ms() const {
  if (samples_ms_.empty()) return kReferenceSampleMs;
  std::vector<double> v = samples_ms_;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
