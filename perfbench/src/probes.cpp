// Layer probes of traced runs: each one times a call into one layer's
// public functions from outside, on the workload's own kernels. A metric
// the workload already measured in its own traced loop is kept; the
// probes fill in the rest, so every traced run reports every per-layer
// metric BENCHMARK.json lists. The study probe (study_sweep.cpp)
// runs one small round of study-sweep's own sweep code, so its figures
// mean what study-sweep's do.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "jit/backend.hpp"
#include "kernels/benchmark.hpp"
#include "serve/client.hpp"
#include "serve/engine_cache.hpp"
#include "serve/server.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "vulfi/campaign.hpp"
#include "vulfi/driver.hpp"
#include "vulfi/report.hpp"

namespace perfbench {

namespace {

using namespace vulfi;

constexpr unsigned kCleanRuns = 20;
constexpr unsigned kExperiments = 200;
constexpr unsigned kExactExperiments = 50;

/// Sets `name` unless the workload's traced loop already did.
void offer(Report& report, const std::string& name, double value,
           const std::string& unit) {
  if (!report.has(name)) report.set(name, value, unit);
}

constexpr analysis::FaultSiteCategory kCategory =
    analysis::FaultSiteCategory::Control;

serve::CampaignRequest request_of(const std::string& kernel,
                                  std::uint64_t seed) {
  serve::CampaignRequest request;
  request.benchmark = kernel;
  request.category = analysis::category_name(kCategory);
  request.experiments = 10;
  request.min_campaigns = 1;
  request.max_campaigns = 1;
  request.seed = seed;
  return request;
}

double median_of(const std::vector<double>& samples) {
  return median(samples).value_or(0.0);
}

/// Per-backend experiment figures of the engine probes.
struct ExperimentProbe {
  std::vector<double> clean_us, exp_us, exact_us, ratio;
};

void probe_experiments(InjectionEngine& engine, std::uint64_t seed,
                       ExperimentProbe& out, std::uint64_t* skipped,
                       std::uint64_t* remapped) {
  std::vector<double> clean;
  for (unsigned i = 0; i < kCleanRuns; ++i) {
    const auto start = Clock::now();
    engine.run_clean();
    clean.push_back(seconds_since(start) * 1e6);
  }
  Rng rng(seed);
  for (unsigned i = 0; i < kExperiments; ++i) {
    const auto start = Clock::now();
    const ExperimentResult result = engine.run_experiment(rng);
    out.exp_us.push_back(seconds_since(start) * 1e6);
    if (skipped != nullptr) {
      *skipped += result.statically_adjudicated || result.memo_hit ? 1 : 0;
      *remapped += result.remapped ? 1 : 0;
    }
  }
  const GoldenCache& golden = engine.golden();
  std::vector<double> exact;
  for (unsigned i = 0;
       i < kExactExperiments && !golden.site_sequence.empty(); ++i) {
    const std::uint64_t k = rng.next_below(golden.site_sequence.size());
    const unsigned bits =
        engine.sites()[golden.site_sequence[k]].element_type.element_bits();
    const auto bit = static_cast<unsigned>(rng.next_below(bits));
    const auto start = Clock::now();
    engine.run_experiment_exact(k, bit);
    exact.push_back(seconds_since(start) * 1e6);
  }
  out.clean_us.push_back(median_of(clean));
  out.exact_us.push_back(median_of(exact));
  out.ratio.push_back(median_of(exact) / median_of(clean));
}

void probe_engines(const std::vector<std::string>& kernels,
                   const RunOptions& options, Report& report) {
  std::vector<double> build_ms, new_ms, golden_ms, clone_ms, compile_ms;
  ExperimentProbe probes[2];  // interp, jit
  std::uint64_t native = 0, fallback = 0, skipped = 0, remapped = 0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const kernels::Benchmark* bench = kernels::find_benchmark(kernels[i]);
    auto start = Clock::now();
    RunSpec spec = bench->build(spmd::Target::avx(), 0);
    build_ms.push_back(ms_since(start));
    start = Clock::now();
    InjectionEngine engine(std::move(spec), kCategory);
    new_ms.push_back(ms_since(start));
    start = Clock::now();
    engine.warm_golden_cache();
    golden_ms.push_back(ms_since(start));
    std::unique_ptr<InjectionEngine> jit_engine;
    for (int c = 0; c < 3; ++c) {
      start = Clock::now();
      jit_engine = engine.clone();
      clone_ms.push_back(ms_since(start));
    }
    jit_engine->set_backend(interp::ExecMode::Jit);
    start = Clock::now();
    jit_engine->run_clean();  // pays the compile
    const double first_ms = ms_since(start);

    const std::uint64_t seed = derive_stream_seed(options.seed, 0x9b0be, i);
    probe_experiments(engine, seed, probes[0], &skipped, &remapped);
    probe_experiments(*jit_engine, seed, probes[1], nullptr, nullptr);
    compile_ms.push_back(first_ms - probes[1].clean_us.back() / 1e3);
    if (const auto* jit = jit_engine->jit_backend()) {
      native += jit->native_runs();
      fallback += jit->fallback_runs();
    }
  }
  offer(report, "kernels.build_ms", median_of(build_ms), "ms");
  offer(report, "vulfi.engine_new_ms", median_of(new_ms), "ms");
  offer(report, "vulfi.golden_ms", median_of(golden_ms), "ms");
  offer(report, "vulfi.clone_ms", median_of(clone_ms), "ms");
  offer(report, "jit.compile_ms", median_of(compile_ms), "ms");
  offer(report, "jit.native_frac",
        native + fallback == 0
            ? 0.0
            : static_cast<double>(native) / static_cast<double>(native + fallback),
        "ratio");
  const char* names[2] = {"interp", "jit"};
  for (int b = 0; b < 2; ++b) {
    const std::string name = names[b];
    offer(report, name + ".clean_us", median_of(probes[b].clean_us), "us");
    offer(report, "vulfi.exp_us.p50." + name,
          percentile(probes[b].exp_us, 0.5).value_or(0.0), "us");
    offer(report, "vulfi.exp_us.p95." + name,
          percentile(probes[b].exp_us, 0.95).value_or(0.0), "us");
    offer(report, "vulfi.exp_exact_us." + name,
          median_of(probes[b].exact_us), "us");
    offer(report, "vulfi.inject_ratio." + name, median_of(probes[b].ratio),
          "ratio");
  }
  const double n = static_cast<double>(kernels.size() * kExperiments);
  offer(report, "prune.skip_frac", skipped / n, "ratio");
  offer(report, "prune.remap_frac", remapped / n, "ratio");

  if (!report.has("campaign.busy_frac")) {
    InjectionEngine engine(
        kernels::find_benchmark(kernels[0])->build(spmd::Target::avx(), 0),
        kCategory);
    CampaignConfig config;
    config.min_campaigns = config.max_campaigns = 2;
    config.num_threads = 2;
    config.seed = options.seed;
    const CampaignResult result = run_campaigns({&engine}, config);
    double mean_busy = 0.0;
    for (double s : result.throughput.thread_busy_seconds) mean_busy += s;
    mean_busy /= static_cast<double>(
        std::max<std::size_t>(1, result.throughput.thread_busy_seconds.size()));
    report.set("campaign.busy_frac", result.throughput.utilization(), "ratio");
    report.set("campaign.idle_s", result.throughput.wall_seconds - mean_busy,
               "s");
  }
}

void probe_leases(const std::vector<std::string>& kernels, Report& report) {
  serve::EngineCache cache(kernels.size());
  std::vector<double> hit_ms, miss_ms;
  for (const std::string& kernel : kernels) {
    for (int i = 0; i < 4; ++i) {
      const auto start = Clock::now();
      serve::EngineCache::Lease lease = cache.acquire(request_of(kernel, 1));
      (lease.cache_hit ? hit_ms : miss_ms).push_back(ms_since(start));
      if (!lease.ok()) report.fail_check("lease failed: " + lease.error);
    }
  }
  offer(report, "serve.lease_hit_ms", median_of(hit_ms), "ms");
  offer(report, "serve.lease_miss_ms", median_of(miss_ms), "ms");
}

void probe_journal(const RunOptions& options, Report& report) {
  const std::string payload =
      "{\"t\":\"study-cell\",\"benchmark\":\"blackscholes\",\"vl\":8,"
      "\"isa\":\"avx\",\"category\":\"pure-data\",\"det\":0,\"campaigns\":2,"
      "\"experiments\":200,\"benign\":150,\"sdc\":40,\"crash\":10}";
  const struct {
    const char* name;
    JournalSync sync;
    unsigned appends;
  } modes[] = {{"always", JournalSync::Always, 100},
               {"off", JournalSync::Off, 1000}};
  for (const auto& mode : modes) {
    const std::string path = options.work_dir + "/probe-" + mode.name;
    JournalWriter writer;
    std::string error;
    if (!writer.open(path, 0, &error)) {
      report.fail_check("journal open failed: " + error);
      return;
    }
    writer.set_sync_policy(mode.sync);
    std::vector<double> us;
    for (unsigned i = 0; i < mode.appends; ++i) {
      const auto start = Clock::now();
      if (!writer.append(payload)) report.fail_check("journal append failed");
      us.push_back(seconds_since(start) * 1e6);
    }
    writer.close();
    std::filesystem::remove(path);
    offer(report, std::string("journal.append_us.") + mode.name,
          median_of(us), "us");
  }
}

void probe_daemon(const std::vector<std::string>& kernels,
                  const RunOptions& options, Report& report) {
  if (report.has("serve.ping_ms")) return;
  serve::ServerConfig config;
  config.socket_path = options.work_dir + "/probe.sock";
  serve::CampaignServer server(config);
  std::string error;
  if (!server.start(&error)) {
    report.fail_check("probe daemon start failed: " + error);
    return;
  }
  std::vector<double> ping_ms, first_ms;
  for (int i = 0; i < 20; ++i) {
    const auto start = Clock::now();
    if (serve::ping_server(config.socket_path)) ping_ms.push_back(ms_since(start));
  }
  std::uint64_t submits = 0, busy = 0;
  for (const std::string& kernel : kernels) {
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      double first = -1.0;
      serve::StreamCallbacks callbacks;
      callbacks.on_record = [&](const std::string&) {
        if (first < 0.0) first = ms_since(start);
      };
      const serve::SubmitOutcome outcome = serve::submit_campaign(
          config.socket_path, request_of(kernel, 7 + i), callbacks);
      submits += 1;
      busy += outcome.busy ? 1 : 0;
      // The last submit of each kernel also checks the daemon's answer
      // against a cold in-process run of the same request.
      const bool ok =
          outcome.ok &&
          (i < 2 || outcome.stats_json ==
                        cold_campaign_stats(request_of(kernel, 7 + i)));
      report.ops.add(ok);
      if (!ok) report.fail_check("probe submit for " + kernel + " failed or "
                                 "differs from a cold in-process run");
      if (first >= 0.0) first_ms.push_back(first);
    }
  }
  const serve::EngineCacheStats stats = server.cache().stats();
  server.request_shutdown();
  server.wait();
  report.set("serve.ping_ms", median_of(ping_ms), "ms");
  offer(report, "serve.first_record_ms", median_of(first_ms), "ms");
  offer(report, "serve.cache_hit_frac",
        static_cast<double>(stats.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, stats.hits + stats.misses)),
        "ratio");
  offer(report, "serve.busy_frac",
        static_cast<double>(busy) / static_cast<double>(submits), "ratio");
}

}  // namespace

std::string cold_campaign_stats(const serve::CampaignRequest& request) {
  serve::EngineCache cache(1);
  serve::EngineCache::Lease lease = cache.acquire(request);
  if (!lease.ok()) return "cold build failed: " + lease.error;
  std::vector<InjectionEngine*> engines;
  for (const auto& engine : lease.engines) engines.push_back(engine.get());
  return campaign_stats_json(
      run_campaigns(engines, serve::to_campaign_config(request, 0)));
}

void probe_layers(const std::vector<std::string>& kernels,
                  const RunOptions& options, Report& report) {
  probe_engines(kernels, options, report);
  probe_leases(kernels, report);
  probe_journal(options, report);
  probe_daemon(kernels, options, report);
  if (!report.has("study.cold_s")) probe_study(options, report);
}

}  // namespace perfbench
