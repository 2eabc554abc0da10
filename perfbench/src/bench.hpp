// Shared pieces of the benchmark: the run's options, its report
// (metrics, operation counts, correctness), and the timing helpers the
// workloads use to time calls into the program's layers from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Private scratch directory inside the checkout (sockets, journals,
  /// summary stores); removed when the run ends.
  std::string work_dir;
  /// Worker threads the machine offers (nproc).
  unsigned nproc = 1;
};

/// Everything one run prints: the final JSON line's fields plus notes
/// (machine settings, per-kernel breakdowns) written to stderr.
class Report {
 public:
  OpCounts ops;

  /// Records a metric; a value that is not finite (a division by an
  /// empty tally) is refused as a failed check instead.
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// A correctness check failed: the run is not correct, whatever its
  /// operation counts say.
  void fail_check(const std::string& what);
  bool checks_passed() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

  void note(const std::string& line);

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}
  /// with the metrics named in `names`.
  std::string result_json(const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> check_failures_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

class HostSpeed;

/// Sets host.speed to the median host speed the run sampled and notes
/// its range.
void report_host(Report& report, const HostSpeed& host);

/// Sets setup_s to the median of a run's set-up samples (seconds).
void report_setup(Report& report, const std::vector<double>& setups);

/// Sets req_p50_ms and req_p90_ms from untraced request latencies; fails
/// the run's check when p90 lacks ten samples beyond it.
void report_request_latency(Report& report, const std::vector<double>& ms);

/// The measurement loop's condition: measure for options.seconds, and
/// on past it until 100 requests completed in an untraced run (p90 then
/// has ten samples beyond it), capped at four times the run length.
bool keep_measuring(const RunOptions& options, Clock::time_point start,
                    std::size_t requests);

// --- workloads ---------------------------------------------------------------

/// Threads a workload keeps busy at once (clients + workers).
unsigned workload_threads(const std::string& workload);

void run_campaign_long(const RunOptions& options, Report& report);
void run_serve_short(const RunOptions& options, Report& report);
void run_study_sweep(const RunOptions& options, Report& report);

/// Checks each input's un-instrumented clean-run output of every named
/// kernel against Benchmark::reference (the scalar host model); each
/// mismatch fails the run's check.
void check_references(const std::vector<std::string>& kernel_names,
                      bool avx, Report& report);

/// Times single calls into each layer's public functions on `kernels`
/// (AVX, control sites): kernel build, engine construction, golden warm,
/// clone, clean runs, experiments, journal appends, engine-cache leases,
/// a probe daemon and probe_study. Sets every per-layer metric the
/// workload's own traced loop did not already set.
void probe_layers(const std::vector<std::string>& kernels,
                  const RunOptions& options, Report& report);

/// One small cold and warm study round (1 kernel, width 8, 3 cells) timed
/// as study-sweep times its rounds; sets every study.* metric.
void probe_study(const RunOptions& options, Report& report);

/// Statistics of a cold in-process service of `request`: a fresh
/// single-entry engine cache (a guaranteed miss) and the campaign code the
/// daemon calls. Daemon responses must match it byte for byte.
std::string cold_campaign_stats(const vulfi::serve::CampaignRequest& request);

/// The metric names of each mode, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

}  // namespace perfbench
