// campaign-long: the paper's §IV-D campaign as users run it.
//
// Four paper kernels x {pure-data, control, address} on AVX, each cell a
// fixed-length run_campaigns call (min = max campaigns, so the stop rule
// never shortens a run) with 2 workers, golden cache and prune on — the
// CLI defaults — once per backend. Faulty runs, inject callouts, prune
// adjudication and the campaign executor (including its per-call engine
// clones) do nearly all the work; set-up is a small share.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "bench.hpp"
#include "calibrate.hpp"
#include "interp/interpreter.hpp"
#include "jit/backend.hpp"
#include "kernels/benchmark.hpp"
#include "support/rng.hpp"
#include "vulfi/campaign.hpp"
#include "vulfi/report.hpp"

namespace perfbench {

namespace {

using namespace vulfi;

const std::vector<std::string> kKernels = {"stencil", "swaptions",
                                           "blackscholes", "jacobi"};
const analysis::FaultSiteCategory kCategories[] = {
    analysis::FaultSiteCategory::PureData, analysis::FaultSiteCategory::Control,
    analysis::FaultSiteCategory::Address};
constexpr unsigned kCampaigns = 1;
constexpr unsigned kExperiments = 100;
constexpr unsigned kJobs = 2;

/// One (kernel, category) cell: one prototype engine per predefined
/// input, instrumented and golden-warmed at set-up.
struct Cell {
  std::string kernel;
  analysis::FaultSiteCategory category;
  std::vector<std::unique_ptr<InjectionEngine>> engines;
};

/// A fresh engine set for one campaign call, as a `vulfi campaign` run
/// has: clones share the prototypes' golden cache but start with an
/// empty prune memo, so no call reuses another call's executions.
std::vector<std::unique_ptr<InjectionEngine>> fresh_engines(const Cell& cell) {
  std::vector<std::unique_ptr<InjectionEngine>> engines;
  for (const auto& prototype : cell.engines) {
    engines.push_back(prototype->clone());
  }
  return engines;
}

std::vector<Cell> build_cells() {
  std::vector<Cell> cells;
  for (const std::string& kernel : kKernels) {
    const kernels::Benchmark* bench = kernels::find_benchmark(kernel);
    for (const analysis::FaultSiteCategory category : kCategories) {
      Cell cell{kernel, category, {}};
      for (unsigned input = 0; input < bench->num_inputs(); ++input) {
        cell.engines.push_back(std::make_unique<InjectionEngine>(
            bench->build(spmd::Target::avx(), input), category));
        cell.engines.back()->warm_golden_cache();
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Interpreter fallbacks of `engines` under the jit backend.
std::uint64_t fallback_runs(
    const std::vector<std::unique_ptr<InjectionEngine>>& engines) {
  std::uint64_t total = 0;
  for (const auto& engine : engines) {
    if (const jit::JitExecutor* jit = engine->jit_backend()) {
      total += jit->fallback_runs();
    }
  }
  return total;
}

/// Per-backend tallies of the measured cells.
struct Side {
  double seconds = 0.0;
  std::uint64_t experiments = 0;
};

/// One timed run_campaigns call, kept until the host sample after it
/// is known.
struct Call {
  int traced = 0;
  int backend = 0;
  std::size_t cell = 0;
  double seconds = 0.0;
  std::uint64_t experiments = 0;
  /// HostSpeed::samples() when the call started.
  std::size_t after = 0;
};

}  // namespace

void run_campaign_long(const RunOptions& options, Report& report) {
  // Every time below is in reference seconds (calibrate.hpp): the host
  // is sampled around every set-up and every call, with as many threads
  // as the timed work keeps busy.
  HostSpeed setup_host(1), host(kJobs);
  auto sample = [&report](HostSpeed& speed) {
    if (!speed.sample()) report.fail_check("host calibration checksum");
  };

  // Set-up builds the whole matrix from nothing before every measured
  // pass, so its samples span the run as the throughput figures do. The
  // previous set is destroyed before the timer starts: no sample times a
  // teardown, and the process never holds two sets at once.
  std::vector<Cell> cells;
  std::vector<double> setups;
  auto set_up = [&] {
    const auto window_start = Clock::now();
    cells.clear();
    sample(setup_host);
    const auto start = Clock::now();
    cells = build_cells();
    const double seconds = seconds_since(start);
    sample(setup_host);
    setups.push_back(
        setup_host.reference_seconds(seconds, setup_host.samples() - 1));
    return Clock::now() - window_start;
  };
  set_up();
  check_references(kKernels, true, report);

  // Measured passes over the matrix. A pass runs every cell under both
  // backends with one seed and compares their statistics byte for byte.
  // Trace runs alternate untraced and traced passes.
  const interp::ExecMode backends[2] = {interp::ExecMode::PreDecoded,
                                        interp::ExecMode::Jit};
  std::vector<Call> calls;
  std::vector<double> clone_ms;  // traced passes: per-engine clone time
  double busy_sum = 0.0, idle_sum = 0.0;
  std::uint64_t traced_cells = 0, prune_skipped = 0, prune_remapped = 0,
                traced_experiments = 0;
  std::size_t untraced_calls = 0;
  // The measurement window leaves out the set-ups between passes.
  auto measure_start = Clock::now();
  for (std::uint64_t pass = 0;
       pass < 2 || keep_measuring(options, measure_start, untraced_calls);
       ++pass) {
    if (pass > 0) measure_start += set_up();
    const int traced = options.trace && pass % 2 == 1 ? 1 : 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Cell& cell = cells[c];
      // A traced run repeats each untraced pass's seeds in the traced
      // pass after it, so the overhead compares identical work.
      const std::uint64_t seed = derive_stream_seed(
          options.seed, options.trace ? pass / 2 : pass, c);
      std::string stats[2];
      for (int b = 0; b < 2; ++b) {
        // Alternate which backend runs first so neither always runs on
        // processor caches and an allocator the other one warmed.
        const int backend = (pass + c) % 2 == 0 ? b : 1 - b;
        CampaignConfig config;
        config.experiments_per_campaign = kExperiments;
        config.min_campaigns = kCampaigns;
        config.max_campaigns = kCampaigns;
        config.seed = seed;
        config.num_threads = kJobs;
        config.backend = backends[backend];
        const auto clone_start = Clock::now();
        const auto engines = fresh_engines(cell);
        if (traced) {
          clone_ms.push_back(ms_since(clone_start) / engines.size());
        }
        std::vector<InjectionEngine*> raw;
        for (const auto& engine : engines) raw.push_back(engine.get());
        sample(host);
        const auto start = Clock::now();
        const CampaignResult result = run_campaigns(raw, config);
        const double seconds = seconds_since(start);
        bool ok = result.ok() && result.campaigns == kCampaigns;
        if (backend == 1) {
          // A jit figure must never be an interpreter figure: without
          // executable memory, or when worker 0's engines fell back to
          // the interpreter, the call counts as failed.
          ok = ok && jit::JitExecutor::available() &&
               fallback_runs(engines) == 0;
        }
        report.ops.add(ok);
        if (!ok) continue;
        stats[backend] = campaign_stats_json(result);
        calls.push_back(Call{traced, backend, c, seconds,
                             result.throughput.experiments, host.samples()});
        untraced_calls += traced ? 0 : 1;
        if (traced) {
          traced_cells += 1;
          busy_sum += result.throughput.utilization();
          double mean_busy = 0.0;
          for (double s : result.throughput.thread_busy_seconds) mean_busy += s;
          mean_busy /= static_cast<double>(
              result.throughput.thread_busy_seconds.size());
          idle_sum += result.throughput.wall_seconds - mean_busy;
          prune_skipped += result.prune_adjudicated + result.prune_memo_hits;
          prune_remapped += result.prune_remapped;
          traced_experiments += result.experiments;
        }
      }
      if (!stats[0].empty() && !stats[1].empty() && stats[0] != stats[1]) {
        report.ops.failed += 1;
        report.fail_check(cell.kernel + "/" +
                          analysis::category_name(cell.category) +
                          ": interp and jit statistics differ");
      }
    }
    sample(host);
  }

  Side sides[2][2];       // [traced][backend], reference seconds
  Side wall[2];           // untraced, by backend, wall seconds
  std::vector<double> latency_ms[2];
  std::map<std::string, Side> per_kernel[2];  // untraced, by backend
  for (const Call& call : calls) {
    const double seconds = host.reference_seconds(call.seconds, call.after);
    Side& side = sides[call.traced][call.backend];
    side.seconds += seconds;
    side.experiments += call.experiments;
    latency_ms[call.traced].push_back(seconds * 1e3);
    if (!call.traced) {
      Side& kernel_side = per_kernel[call.backend][cells[call.cell].kernel];
      kernel_side.seconds += seconds;
      kernel_side.experiments += call.experiments;
      wall[call.backend].seconds += call.seconds;
      wall[call.backend].experiments += call.experiments;
    }
  }

  report_setup(report, setups);
  auto rate = [](const Side& side) {
    return side.seconds > 0.0 ? side.experiments / side.seconds : 0.0;
  };
  const double interp_eps = rate(sides[0][0]);
  const double jit_eps = rate(sides[0][1]);
  report.set("exp_per_s.interp", interp_eps, "experiments/s");
  report.set("exp_per_s.jit", jit_eps, "experiments/s");
  // Calls run one after another, so requests per second is the inverse
  // of their mean latency (the harness's untimed engine cloning between
  // calls is not the program's time).
  const double req_per_s =
      latency_ms[0].size() / (sides[0][0].seconds + sides[0][1].seconds);
  report.set("req_per_s", req_per_s, "1/s");
  if (!options.trace) report_request_latency(report, latency_ms[0]);
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
  report_host(report, host);
  report.note("wall clock: interp " + std::to_string(rate(wall[0])) +
              " exp/s, jit " + std::to_string(rate(wall[1])) + " exp/s");
  for (const std::string& kernel : kKernels) {
    const double i = rate(per_kernel[0][kernel]);
    const double j = rate(per_kernel[1][kernel]);
    report.note(kernel + ": interp " + std::to_string(i) + " exp/s, jit " +
                std::to_string(j) + " exp/s, jit.speedup " +
                std::to_string(i > 0.0 ? j / i : 0.0) + "x (base: interp)");
  }
  if (!options.trace) return;

  report.set("jit.speedup", interp_eps > 0.0 ? jit_eps / interp_eps : 0.0,
             "ratio");
  report.set("vulfi.clone_ms", *median(clone_ms), "ms");
  report.set("campaign.busy_frac", busy_sum / traced_cells, "ratio");
  report.set("campaign.idle_s", idle_sum / traced_cells, "s");
  report.set("prune.skip_frac",
             static_cast<double>(prune_skipped) / traced_experiments, "ratio");
  report.set("prune.remap_frac",
             static_cast<double>(prune_remapped) / traced_experiments,
             "ratio");
  const double traced_time = sides[1][0].seconds + sides[1][1].seconds;
  const double traced_rate =
      (sides[1][0].experiments + sides[1][1].experiments) / traced_time;
  const double untraced_rate =
      (sides[0][0].experiments + sides[0][1].experiments) /
      (sides[0][0].seconds + sides[0][1].seconds);
  report.set("trace.overhead_frac",
             tracing_overhead(untraced_rate, traced_rate, true).value_or(0.0),
             "ratio");
  probe_layers(kKernels, options, report);
}

}  // namespace perfbench
