// study-sweep: the vector-width study, written once and read back.
//
// run_study runs locally (window 2) over 2 kernels x widths {1, 4, 8} x
// AVX x 3 categories, detectors off. Each round has two phases: a cold
// sweep writes a fresh study journal (fsync=always) and fills a fresh
// summary store; a warm sweep uses a new journal and the same store, so
// it injects nothing and measures only store, journal and report cost.
// Rounds alternate the backend; a pair of rounds shares one plan seed
// (in a traced run, the traced pair repeats the untraced pair's seed).
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "calibrate.hpp"
#include "jit/backend.hpp"
#include "study/study.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace vulfi;

const std::vector<std::string> kKernels = {"blackscholes", "stencil"};
constexpr unsigned kWindow = 2;

std::optional<study::StudyPlan> make_plan(std::vector<std::string> kernels,
                                          std::vector<unsigned> widths,
                                          std::vector<std::string> categories,
                                          std::uint64_t seed,
                                          const std::string& backend,
                                          std::string* error) {
  study::StudyPlanConfig config;
  config.benchmarks = std::move(kernels);
  config.widths = std::move(widths);
  config.isas = {"avx"};
  config.categories = std::move(categories);
  config.detectors_on = false;
  config.base.experiments = 10;
  config.base.min_campaigns = 2;
  config.base.max_campaigns = 2;
  config.base.seed = seed;
  config.base.jobs = 1;
  config.base.backend = backend;
  return study::StudyPlan::make(config, error);
}

/// One sweep as the benchmark observed it from outside run_study.
struct Sweep {
  study::StudyResult result;
  double seconds = 0.0;
  /// Per executed cell: time since the same worker thread's previous
  /// cell finished (or since the sweep started). Workers take the next
  /// cell as soon as they finish one, so this is the cell's latency.
  std::vector<double> executed_cell_ms;
  std::string reports[3];  // json, markdown, csv
  double report_ms = 0.0;
};

Sweep run_sweep(const study::StudyPlan& plan, const std::string& journal,
                const std::string& store) {
  Sweep sweep;
  std::mutex mutex;
  std::map<std::thread::id, Clock::time_point> last;
  study::StudyOptions options;
  options.window = kWindow;
  options.journal_path = journal;
  options.journal_sync = JournalSync::Always;
  options.summaries_dir = store;
  const auto start = Clock::now();
  options.on_cell = [&](const study::StudyCellOutcome& cell) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex);
    const auto found = last.find(std::this_thread::get_id());
    const auto since = found == last.end() ? start : found->second;
    last[std::this_thread::get_id()] = now;
    if (cell.source != "store") {
      sweep.executed_cell_ms.push_back(
          std::chrono::duration<double, std::milli>(now - since).count());
    }
  };
  sweep.result = study::run_study(plan, options);
  const auto report_start = Clock::now();
  sweep.reports[0] = study::study_report_json(plan, sweep.result);
  sweep.reports[1] = study::study_report_markdown(plan, sweep.result);
  sweep.reports[2] = study::study_report_csv(plan, sweep.result);
  sweep.report_ms = ms_since(report_start);
  sweep.seconds = seconds_since(start);
  return sweep;
}

/// Converts a sweep's times, taken between host samples `after` - 1 and
/// `after`, into reference seconds.
void to_reference(const HostSpeed& host, std::size_t after, Sweep& sweep) {
  const double scale = host.reference_seconds(1.0, after);
  sweep.seconds *= scale;
  sweep.report_ms *= scale;
  for (double& ms : sweep.executed_cell_ms) ms *= scale;
}

/// Per-layer figures of traced cold/warm round pairs.
struct StudyTrace {
  std::vector<double> cell_ms, cold_s, warm_s, report_ms;
  std::uint64_t from_store = 0, new_experiments = 0;

  void add(const Sweep& cold, const Sweep& warm) {
    cell_ms.insert(cell_ms.end(), cold.executed_cell_ms.begin(),
                   cold.executed_cell_ms.end());
    cold_s.push_back(cold.seconds);
    warm_s.push_back(warm.seconds);
    report_ms.push_back(warm.report_ms);
    from_store += warm.result.cells_from_store;
    new_experiments += warm.result.new_experiments;
  }

  void report_to(Report& report) const {
    const double rounds = static_cast<double>(cold_s.size());
    report.set("study.cell_ms.p50", median(cell_ms).value_or(0.0), "ms");
    report.set("study.cold_s", median(cold_s).value_or(0.0), "s");
    report.set("study.warm_s", median(warm_s).value_or(0.0), "s");
    report.set("study.report_ms", median(report_ms).value_or(0.0), "ms");
    report.set("study.cells_from_store", from_store / rounds, "count");
    report.set("study.new_experiments", new_experiments / rounds, "count");
  }
};

}  // namespace

void run_study_sweep(const RunOptions& options, Report& report) {
  namespace fs = std::filesystem;
  // Set-up: plan validation and a one-cell warm-up study (fixed seed:
  // set-up is the same work for every workload seed), so lazy
  // initialisation is paid before the first timed sweep. It is repeated
  // before every round pair, so its samples span the run as the sweep
  // figures do; each starts from an empty directory, removed before the
  // timer starts.
  //
  // Every time below is in reference seconds (calibrate.hpp): the host
  // is sampled around every set-up and every sweep, with as many threads
  // as the timed work keeps busy.
  HostSpeed setup_host(1), host(kWindow);
  auto sample = [&report](HostSpeed& speed) {
    if (!speed.sample()) report.fail_check("host calibration checksum");
  };
  std::vector<double> setups;
  const std::string setup_dir = options.work_dir + "/setup";
  auto set_up = [&]() -> std::optional<Clock::duration> {
    const auto window_start = Clock::now();
    fs::remove_all(setup_dir);
    sample(setup_host);
    const auto start = Clock::now();
    std::string error;
    const auto warmup = make_plan({kKernels[0]}, {8}, {"control"}, 1,
                                  "interp", &error);
    const auto full = make_plan(kKernels, {1, 4, 8},
                                {"pure-data", "control", "address"},
                                options.seed, "interp", &error);
    if (!warmup || !full) {
      report.fail_check("study plan refused: " + error);
      return std::nullopt;
    }
    fs::create_directories(setup_dir);
    const Sweep sweep =
        run_sweep(*warmup, setup_dir + "/journal", setup_dir + "/store");
    if (!sweep.result.complete()) {
      report.fail_check("warm-up study failed: " + sweep.result.error);
      return std::nullopt;
    }
    const double seconds = seconds_since(start);
    sample(setup_host);
    setups.push_back(
        setup_host.reference_seconds(seconds, setup_host.samples() - 1));
    return Clock::now() - window_start;
  };
  if (!set_up()) return;
  check_references(kKernels, true, report);

  std::vector<double> cell_ms;  // untraced executed-cell latencies
  StudyTrace trace;
  double cold_seconds[2] = {0.0, 0.0};  // [jit], untraced rounds
  double wall_cold[2] = {0.0, 0.0};     // the same in wall seconds
  std::uint64_t cold_experiments[2] = {0, 0};
  double sweep_seconds[2] = {0.0, 0.0};  // [traced]
  std::uint64_t cells_resolved[2] = {0, 0};
  std::string pair_report;  // the first round of a pair's cold report
  // The measurement window leaves out the set-ups between round pairs.
  auto measure_start = Clock::now();
  for (std::uint64_t round = 0;
       round < 4 || keep_measuring(options, measure_start, cell_ms.size());
       ++round) {
    if (round > 0 && round % 2 == 0) {
      const auto setup = set_up();
      if (!setup) return;
      measure_start += *setup;
    }
    const int jit = static_cast<int>(round % 2);
    const int traced = options.trace && (round / 2) % 2 == 1 ? 1 : 0;
    std::string error;
    const auto plan = make_plan(
        kKernels, {1, 4, 8}, {"pure-data", "control", "address"},
        derive_stream_seed(options.seed, options.trace ? round / 4 : round / 2,
                           0),
        jit ? "jit" : "interp",
        &error);
    if (!plan) {
      report.fail_check("study plan refused: " + error);
      break;
    }
    const std::string dir = options.work_dir + "/r" + std::to_string(round);
    fs::create_directories(dir);
    sample(host);
    Sweep cold = run_sweep(*plan, dir + "/cold.journal", dir + "/store");
    sample(host);
    Sweep warm = run_sweep(*plan, dir + "/warm.journal", dir + "/store");
    sample(host);
    fs::remove_all(dir);
    const double cold_wall = cold.seconds;
    to_reference(host, host.samples() - 2, cold);
    to_reference(host, host.samples() - 1, warm);

    // Without executable memory a jit round runs on the interpreter;
    // its cells count as failed rather than as jit figures.
    const bool backend_ok = !jit || jit::JitExecutor::available();
    const unsigned cells = plan->cells().size();
    for (const Sweep* sweep : {&cold, &warm}) {
      for (unsigned c = 0; c < cells; ++c) {
        report.ops.add(backend_ok && c < sweep->result.cells.size() &&
                       sweep->result.cells[c].done &&
                       sweep->result.cells[c].error.empty());
      }
    }
    const bool complete = cold.result.complete() && warm.result.complete();
    if (!complete) {
      report.fail_check("sweep incomplete: " + cold.result.error +
                        warm.result.error);
      continue;
    }
    for (int r = 0; r < 3; ++r) {
      if (cold.reports[r] != warm.reports[r]) {
        report.ops.failed += 1;
        report.fail_check("cold and warm study reports differ");
      }
    }
    if (warm.result.new_experiments != 0 ||
        warm.result.cells_from_store != cells) {
      report.ops.failed += 1;
      report.fail_check("warm sweep injected experiments");
    }
    // Both backends of a round pair ran the same plan seed: their
    // reports must be byte-identical too.
    if (jit == 0) {
      pair_report = cold.reports[0];
    } else if (cold.reports[0] != pair_report) {
      report.ops.failed += 1;
      report.fail_check("interp and jit study reports differ");
    }

    sweep_seconds[traced] += cold.seconds + warm.seconds;
    cells_resolved[traced] += 2 * cells;
    if (!traced) {
      cell_ms.insert(cell_ms.end(), cold.executed_cell_ms.begin(),
                     cold.executed_cell_ms.end());
      cold_seconds[jit] += cold.seconds;
      wall_cold[jit] += cold_wall;
      cold_experiments[jit] += cold.result.new_experiments;
    } else {
      trace.add(cold, warm);
    }
  }

  report_setup(report, setups);
  const double interp_eps = cold_experiments[0] / cold_seconds[0];
  const double jit_eps = cold_experiments[1] / cold_seconds[1];
  report.set("exp_per_s.interp", interp_eps, "experiments/s");
  report.set("exp_per_s.jit", jit_eps, "experiments/s");
  const double untraced_rate = cells_resolved[0] / sweep_seconds[0];
  report.set("req_per_s", untraced_rate, "1/s");
  if (!options.trace) report_request_latency(report, cell_ms);
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
  report_host(report, host);
  report.note("wall clock: interp " +
              std::to_string(cold_experiments[0] / wall_cold[0]) +
              " exp/s, jit " +
              std::to_string(cold_experiments[1] / wall_cold[1]) + " exp/s");
  if (!options.trace) return;

  report.set("jit.speedup", jit_eps / interp_eps, "ratio");
  trace.report_to(report);
  report.set("trace.overhead_frac",
             tracing_overhead(untraced_rate,
                              cells_resolved[1] / sweep_seconds[1], true)
                 .value_or(0.0),
             "ratio");
  probe_layers(kKernels, options, report);
}

void probe_study(const RunOptions& options, Report& report) {
  namespace fs = std::filesystem;
  std::string error;
  const auto plan = make_plan({kKernels[0]}, {8},
                              {"pure-data", "control", "address"},
                              options.seed, "interp", &error);
  if (!plan) {
    report.fail_check("probe study plan refused: " + error);
    return;
  }
  const std::string dir = options.work_dir + "/probe-study";
  fs::create_directories(dir);
  const Sweep cold = run_sweep(*plan, dir + "/cold.journal", dir + "/store");
  const Sweep warm = run_sweep(*plan, dir + "/warm.journal", dir + "/store");
  fs::remove_all(dir);
  const bool ok = cold.result.complete() && warm.result.complete() &&
                  cold.reports[0] == warm.reports[0] &&
                  warm.result.new_experiments == 0;
  report.ops.add(ok);
  if (!ok) report.fail_check("probe study failed or its reports differ");
  StudyTrace trace;
  trace.add(cold, warm);
  trace.report_to(report);
}

}  // namespace perfbench
