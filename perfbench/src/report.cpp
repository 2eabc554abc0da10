#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "calibrate.hpp"
#include "interp/interpreter.hpp"
#include "kernels/benchmark.hpp"

namespace perfbench {

namespace {

using namespace vulfi;

constexpr std::size_t kMinRequests = 100;

/// Runs the kernel's un-instrumented clean run on the interpreter and
/// compares every output region with Benchmark::reference, the
/// independent scalar host model (tolerance as in the tier-1 suite).
bool matches_reference(const kernels::Benchmark& bench,
                       const spmd::Target& target, unsigned input,
                       std::string* why) {
  RunSpec spec = bench.build(target, input);
  interp::RuntimeEnv env;
  interp::Arena arena = spec.arena;
  interp::Interpreter interp(arena, env);
  const interp::ExecResult result = interp.run(*spec.entry, spec.args);
  if (!result.ok()) {
    *why = "clean run trapped";
    return false;
  }
  for (const kernels::RegionRef& ref : bench.reference(target, input)) {
    const auto& region = arena.region(ref.region);
    if (!ref.i32.empty()) {
      if (arena.read_array<std::int32_t>(region.base, ref.i32.size()) !=
          ref.i32) {
        *why = "region " + ref.region + " differs";
        return false;
      }
      continue;
    }
    const auto actual = arena.read_array<float>(region.base, ref.f32.size());
    for (std::size_t i = 0; i < ref.f32.size(); ++i) {
      const float tolerance = 1e-5f + 1e-4f * std::fabs(ref.f32[i]);
      if (!(std::fabs(actual[i] - ref.f32[i]) <= tolerance)) {
        *why = "region " + ref.region + " element " + std::to_string(i);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    return;
  }
  metrics_[name] = Value{value, unit};
}

void Report::fail_check(const std::string& what) {
  check_failures_.push_back(what);
}

void Report::note(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

std::string Report::result_json(const std::vector<std::string>& names) const {
  const bool correct = checks_passed() && ops.failed == 0 && ops.attempted > 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << (ops.attempted == 0 ? 1 : ops.attempted)
      << ", \"failed\": "
      << (ops.attempted == 0 ? 1 : ops.failed) << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto found = metrics_.find(name);
    if (found == metrics_.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", found->second.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << found->second.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void report_setup(Report& report, const std::vector<double>& setups) {
  report.set("setup_s", *median(setups), "s");
  std::string line = "set-up samples (s):";
  for (const double s : setups) {
    char value[32];
    std::snprintf(value, sizeof(value), " %.4f", s);
    line += value;
  }
  report.note(line);
}

void report_host(Report& report, const HostSpeed& host) {
  const std::vector<double>& speeds = host.speeds();
  report.set("host.speed", median(speeds).value_or(0.0), "ratio");
  char line[160];
  std::snprintf(line, sizeof(line),
                "host speed vs reference: n=%zu, median %.3f, min %.3f, "
                "max %.3f",
                speeds.size(), median(speeds).value_or(0.0),
                *std::min_element(speeds.begin(), speeds.end()),
                *std::max_element(speeds.begin(), speeds.end()));
  report.note(line);
}

void report_request_latency(Report& report, const std::vector<double>& ms) {
  if (!percentile_supported(ms.size(), 0.9)) {
    report.fail_check("only " + std::to_string(ms.size()) +
                      " requests: too few for a 90th percentile");
    return;
  }
  report.set("req_p50_ms", *percentile(ms, 0.5), "ms");
  report.set("req_p90_ms", *percentile(ms, 0.9), "ms");
  const double top = *highest_supported_percentile(ms.size());
  char line[160];
  std::snprintf(line, sizeof(line),
                "requests: n=%zu, p50 %.3f ms, p%g %.3f ms (highest with ten "
                "beyond), quartile spread %.3f",
                ms.size(), *percentile(ms, 0.5), top * 100,
                *percentile(ms, top), *relative_spread(ms));
  report.note(line);
}

bool keep_measuring(const RunOptions& options, Clock::time_point start,
                    std::size_t requests) {
  const double elapsed = seconds_since(start);
  if (elapsed < options.seconds) return true;
  // Traced runs report no request percentiles.
  return !options.trace && requests < kMinRequests && elapsed < 4 * options.seconds;
}
void check_references(const std::vector<std::string>& kernel_names,
                      bool avx, Report& report) {
  const spmd::Target target = avx ? spmd::Target::avx() : spmd::Target::sse4();
  for (const std::string& name : kernel_names) {
    const kernels::Benchmark* bench = kernels::find_benchmark(name);
    for (unsigned input = 0; input < bench->num_inputs(); ++input) {
      std::string why;
      if (!matches_reference(*bench, target, input, &why)) {
        report.fail_check(name + " input " + std::to_string(input) +
                          " does not match its scalar reference: " + why);
      }
    }
  }
}

unsigned workload_threads(const std::string& workload) {
  // campaign-long: run_campaigns with 2 workers (the caller waits).
  // serve-short: 2 client threads + 2 scheduler workers; the daemon's
  // accept and per-connection threads only block on sockets.
  // study-sweep: a window of 2 cells, each campaign on 1 thread.
  return workload == "serve-short" ? 4 : 2;
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "setup_s",       "peak_rss_mb", "exp_per_s.interp", "exp_per_s.jit",
      "req_per_s",     "req_p50_ms",  "req_p90_ms"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "kernels.build_ms",
      "vulfi.engine_new_ms",
      "vulfi.golden_ms",
      "vulfi.clone_ms",
      "interp.clean_us",
      "jit.clean_us",
      "jit.compile_ms",
      "jit.native_frac",
      "vulfi.exp_us.p50.interp",
      "vulfi.exp_us.p95.interp",
      "vulfi.exp_us.p50.jit",
      "vulfi.exp_us.p95.jit",
      "vulfi.exp_exact_us.interp",
      "vulfi.exp_exact_us.jit",
      "vulfi.inject_ratio.interp",
      "vulfi.inject_ratio.jit",
      "prune.skip_frac",
      "prune.remap_frac",
      "campaign.busy_frac",
      "campaign.idle_s",
      "jit.speedup",
      "serve.ping_ms",
      "serve.first_record_ms",
      "serve.lease_hit_ms",
      "serve.lease_miss_ms",
      "serve.cache_hit_frac",
      "serve.busy_frac",
      "journal.append_us.always",
      "journal.append_us.off",
      "study.cell_ms.p50",
      "study.report_ms",
      "study.cells_from_store",
      "study.new_experiments",
      "study.cold_s",
      "study.warm_s",
      "trace.overhead_frac",
      "host.speed"};
  return names;
}

}  // namespace perfbench
