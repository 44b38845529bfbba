// Host-speed calibration.
//
// On a shared cloud VM, other tenants use the same physical cores. On a
// 4-vCPU Xeon (Emerald Rapids) VM the speed of this kind of code moved by
// up to 2x, in phases that lasted from seconds to minutes, so raw host
// times of two runs of the same code can differ by more than any useful
// regression bound.
//
// A run therefore times a fixed calibration kernel between its ops and
// set-ups. The kernel is compiled into the benchmark, not into the library,
// so no change to the library moves it. It mixes the kinds of work the
// library does: independent integer arithmetic, sorting, hash lookups, an
// event heap and virtual dispatch over many small objects. A run reports
// its times at the reference host speed: a raw time scaled by
// kReferenceSampleMs over the calibration samples taken around it.
// The raw figures and the scales are printed next to the result.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// One calibration sample's host time on a quiet 4-vCPU Xeon (Emerald
/// Rapids, 2.1 GHz) VM. Only the ratio to a run's own samples matters.
inline constexpr double kReferenceSampleMs = 8.0;

/// Runs the calibration kernel twice and returns the host time of the
/// second run in ms (a fixed amount of work, about kReferenceSampleMs on
/// the reference host).
double calibration_sample_ms();

/// Calibration samples taken during one phase of a run.
class HostSpeed {
 public:
  void sample() { samples_ms_.push_back(calibration_sample_ms()); }
  std::size_t samples() const { return samples_ms_.size(); }
  double sample_ms(std::size_t i) const { return samples_ms_.at(i); }
  /// Median sample time in ms (kReferenceSampleMs when nothing was sampled).
  double median_ms() const;
  /// Factor that turns a host time of this phase into one at the
  /// reference speed (kReferenceSampleMs / median_ms()).
  double time_scale() const { return kReferenceSampleMs / median_ms(); }

 private:
  std::vector<double> samples_ms_;
};

}  // namespace perfbench
