// The host's speed, measured by the benchmark's own fixed workload.
//
// The benchmark runs on a few cores of a shared host whose speed drifts
// by a fifth or more over seconds to minutes (other tenants, frequency
// changes). A workload samples the host between its timed operations and
// converts each operation's wall time into reference seconds: wall time
// scaled by how fast the host ran the calibration work around it. The
// work mixes what the program spends its time on: interpreter-style
// dispatch, loads that miss the core's caches, and page faults and
// unmaps of fresh memory. Code of
// the program never runs in the calibration, so a change to the program
// moves reference seconds exactly as it moves wall seconds, while a
// change of host speed moves both the calibration and the operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// `threads` calibration threads run at once, as many as the timed
  /// operations keep busy.
  explicit HostSpeed(unsigned threads);

  /// Runs the calibration work once and records the host's speed.
  /// Returns false if the work computed a wrong checksum.
  bool sample();

  /// Samples taken so far; pass it as `after` for an operation that
  /// starts now.
  std::size_t samples() const { return speeds_.size(); }

  /// `seconds` of wall time of an operation that began after sample
  /// `after` - 1 and ended before sample `after`, in reference seconds:
  /// scaled by the mean speed of those two samples relative to the
  /// reference speed. Needs a sample on each side.
  double reference_seconds(double seconds, std::size_t after) const;

  /// The host's speed relative to the reference, one value per sample.
  const std::vector<double>& speeds() const { return speeds_; }

 private:
  unsigned threads_;
  std::vector<double> speeds_;
  /// Each thread's checksum, computed untimed at the first sample.
  std::vector<std::uint64_t> expected_;
};

}  // namespace perfbench
