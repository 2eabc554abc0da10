// Statistics helpers of the benchmark: percentile selection, quartiles,
// failure accounting and tracing overhead. Kept free of any program
// header so the unit tests exercise them alone.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (p in (0, 1]). nullopt for an empty input.
std::optional<double> percentile(std::vector<double> samples, double p);

/// True when nearest-rank percentile `p` of `n` samples leaves at least
/// kTailSamples samples strictly beyond its rank.
bool percentile_supported(std::size_t n, double p);

/// The highest of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that
/// percentile_supported allows for `n` samples; nullopt when none does.
std::optional<double> highest_supported_percentile(std::size_t n);

/// Median (mean of the two middle samples for an even count).
std::optional<double> median(std::vector<double> samples);

/// The three cut points of Python's statistics.quantiles(data, n=4)
/// (default 'exclusive' method). Needs at least two samples.
std::optional<std::vector<double>> quartiles(std::vector<double> samples);

/// (Q3 - Q1) / median: the run-to-run spread a metric is judged by.
std::optional<double> relative_spread(const std::vector<double>& samples);

/// Operation counts of one run. A run is correct only when every check
/// passed and no attempted operation failed.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    attempted += 1;
    if (!ok) failed += 1;
  }
  double failure_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Tracing overhead as a share of the untraced figure: positive when the
/// traced run reads worse. `higher_is_better` selects the direction
/// (throughputs vs latencies). nullopt when the untraced figure is 0.
std::optional<double> tracing_overhead(double untraced, double traced,
                                       bool higher_is_better);

}  // namespace perfbench
