#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0) || p > 1.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

bool percentile_supported(std::size_t n, double p) {
  if (n == 0 || !(p > 0.0) || p > 1.0) return false;
  return n - nearest_rank(n, p) >= kTailSamples;
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (percentile_supported(n, p)) return p;
  }
  return std::nullopt;
}

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

std::optional<std::vector<double>> quartiles(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 2) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = n + 1;
  std::vector<double> cuts;
  for (std::size_t i = 1; i < 4; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts.push_back((samples[j - 1] * (4.0 - delta) + samples[j] * delta) /
                   4.0);
  }
  return cuts;
}

std::optional<double> relative_spread(const std::vector<double>& samples) {
  const auto cuts = quartiles(samples);
  const auto mid = median(samples);
  if (!cuts || !mid || *mid == 0.0) return std::nullopt;
  return ((*cuts)[2] - (*cuts)[0]) / *mid;
}

std::optional<double> tracing_overhead(double untraced, double traced,
                                       bool higher_is_better) {
  if (untraced == 0.0) return std::nullopt;
  const double worse = higher_is_better ? untraced - traced : traced - untraced;
  return worse / untraced;
}

}  // namespace perfbench
