// serve-short: short submits against a warm daemon.
//
// A closed loop of 2 client threads against an in-process CampaignServer
// (2 scheduler workers, the default 8-entry engine cache). Each request is
// 1 campaign x 10 experiments at jobs 1; its engine key comes from a
// skewed mix of 12 (kernel, ISA, category, backend) keys — more than the
// cache holds — so kernel build,
// instrumentation, golden run, JIT compile, engine lease and the wire
// protocol do most of the work and experiment execution does little.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "calibrate.hpp"
#include "jit/backend.hpp"
#include "serve/client.hpp"
#include "serve/engine_cache.hpp"
#include "serve/server.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace vulfi;
using namespace vulfi::serve;

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr unsigned kSetupRepeats = 3;
/// Keys warmed at set-up: the hottest ones, as many as the cache holds.
constexpr unsigned kWarmKeys = 8;
/// Responses re-run cold in-process and compared byte for byte.
constexpr unsigned kCheckedResponses = 6;

struct Key {
  const char* kernel;
  const char* isa;
  const char* category;
  const char* backend;
  /// Requests per block of kBlock.
  unsigned per_block;
};

/// Popularity order, hottest first. The two hottest keys take two
/// thirds of the traffic, so the median request is a warm jit hit; the
/// eight coldest take one request per block each and keep missing the
/// 8-entry cache, so the 90th percentile is a miss (about a fifth of
/// all requests miss).
constexpr Key kKeys[] = {
    {"blackscholes", "avx", "pure-data", "jit", 18},
    {"stencil", "avx", "control", "jit", 9},
    {"blackscholes", "avx", "pure-data", "interp", 3},
    {"jacobi", "avx", "address", "jit", 2},
    {"stencil", "sse", "pure-data", "interp", 1},
    {"swaptions", "avx", "control", "jit", 1},
    {"jacobi", "sse", "control", "interp", 1},
    {"blackscholes", "sse", "address", "jit", 1},
    {"swaptions", "sse", "pure-data", "interp", 1},
    {"stencil", "avx", "address", "interp", 1},
    {"jacobi", "avx", "pure-data", "jit", 1},
    {"swaptions", "avx", "address", "interp", 1},
};
constexpr unsigned kBlock = 40;
constexpr std::size_t kNumKeys = sizeof(kKeys) / sizeof(kKeys[0]);

CampaignRequest request_of(const Key& key, std::uint64_t seed) {
  CampaignRequest request;
  request.benchmark = key.kernel;
  request.isa = key.isa;
  request.category = key.category;
  request.backend = key.backend;
  request.experiments = 10;
  request.min_campaigns = 1;
  request.max_campaigns = 1;
  request.seed = seed;
  request.jobs = 1;
  return request;
}

/// The request trace: blocks of kBlock key indices with the fixed
/// per-block counts, each block shuffled. The key order is the same for
/// every workload seed — the cache-miss pattern it produces dominates
/// every figure of this workload, so it is part of the workload's
/// definition — while the seed draws every request's campaign seed.
/// Clients take the next request from a shared counter.
class RequestSequence {
 public:
  explicit RequestSequence(std::uint64_t seed) : seed_(seed) {}

  /// Key index and campaign seed of request `n` (n counts up from 0).
  std::pair<std::size_t, std::uint64_t> at(std::uint64_t n) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (keys_.size() <= n) {
      std::vector<std::size_t> block;
      for (std::size_t k = 0; k < kNumKeys; ++k) {
        block.insert(block.end(), kKeys[k].per_block, k);
      }
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[order_.next_below(i + 1)]);
      }
      keys_.insert(keys_.end(), block.begin(), block.end());
    }
    return {keys_[n], derive_stream_seed(seed_, n, 0)};
  }

 private:
  std::mutex mutex_;
  const std::uint64_t seed_;
  Rng order_{0x5e7e0da7};
  std::vector<std::size_t> keys_;
};

/// One completed submit as a client saw it.
struct Sample {
  std::size_t key = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0.0;
  double first_record_ms = -1.0;
  double ping_ms = -1.0;
  bool busy = false;
  std::uint64_t experiments = 0;
  std::string stats_json;
};

}  // namespace

void run_serve_short(const RunOptions& options, Report& report) {
  // Every time below is in reference seconds (calibrate.hpp). Requests
  // overlap, so the host is sampled only around each set-up and around
  // the whole measured loop, whose times all take the mean of the two
  // samples.
  HostSpeed setup_host(1), host(kClients + kWorkers);
  auto sample_host = [&report](HostSpeed& speed) {
    if (!speed.sample()) report.fail_check("host calibration checksum");
  };

  // Each set-up starts a daemon from nothing and warms its cache; the
  // previous daemon is shut down before the timer starts.
  std::unique_ptr<CampaignServer> server;
  std::string socket;
  std::vector<double> setups;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    if (server) {
      server->request_shutdown();
      server->wait();
      server.reset();
    }
    sample_host(setup_host);
    const auto start = Clock::now();
    ServerConfig config;
    config.socket_path = options.work_dir + "/d" + std::to_string(i) + ".sock";
    config.workers = kWorkers;
    server = std::make_unique<CampaignServer>(config);
    std::string error;
    if (!server->start(&error)) {
      report.fail_check("daemon start failed: " + error);
      return;
    }
    socket = config.socket_path;
    for (unsigned k = 0; k < kWarmKeys; ++k) {
      const SubmitOutcome outcome =
          submit_campaign(socket, request_of(kKeys[k], k));
      if (!outcome.ok) {
        report.fail_check("warm-up submit failed: " + outcome.error);
        return;
      }
    }
    const double seconds = seconds_since(start);
    sample_host(setup_host);
    setups.push_back(
        setup_host.reference_seconds(seconds, setup_host.samples() - 1));
  }
  report_setup(report, setups);
  std::vector<std::string> kernel_names;
  for (const Key& key : kKeys) {
    bool seen = false;
    for (const std::string& name : kernel_names) seen |= name == key.kernel;
    if (!seen) kernel_names.push_back(key.kernel);
  }
  check_references(kernel_names, true, report);
  check_references(kernel_names, false, report);

  const EngineCacheStats cache_before = server->cache().stats();
  RequestSequence sequence(derive_stream_seed(options.seed, 0x5e7e, 0));
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Sample>> samples(kClients);
  std::atomic<std::size_t> done{0};  // untraced submits completed
  sample_host(host);
  const auto measure_start = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (keep_measuring(options, measure_start, done.load())) {
        const std::uint64_t n = next.fetch_add(1);
        Sample sample;
        std::tie(sample.key, sample.seed) = sequence.at(n);
        sample.traced = options.trace && n % 2 == 1;
        StreamCallbacks callbacks;
        Clock::time_point start;
        if (sample.traced) {
          const auto ping_start = Clock::now();
          if (ping_server(socket)) sample.ping_ms = ms_since(ping_start);
          callbacks.on_record = [&](const std::string&) {
            if (sample.first_record_ms < 0.0) {
              sample.first_record_ms = ms_since(start);
            }
          };
        }
        start = Clock::now();
        const SubmitOutcome outcome = submit_campaign(
            socket, request_of(kKeys[sample.key], sample.seed), callbacks);
        sample.latency_ms = ms_since(start);
        sample.busy = outcome.busy;
        sample.ok = outcome.ok && outcome.exit_code != 3 &&
                    outcome.server_error.empty();
        if (sample.ok) {
          sample.stats_json = outcome.stats_json;
          sample.experiments =
              journal_u64(outcome.stats_json, "experiments").value_or(0);
          sample.ok = sample.experiments == 10;
        }
        // Without executable memory a jit key runs on the interpreter;
        // its figures would be interpreter figures under a jit name.
        if (std::string(kKeys[sample.key].backend) == "jit" &&
            !jit::JitExecutor::available()) {
          sample.ok = false;
        }
        if (!sample.traced) done.fetch_add(1);
        samples[c].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double loop_seconds = seconds_since(measure_start);
  sample_host(host);
  const double scale = host.reference_seconds(1.0, 1);
  const double wall = loop_seconds * scale;
  for (auto& list : samples) {
    for (Sample& sample : list) {
      sample.latency_ms *= scale;
      if (sample.ping_ms >= 0.0) sample.ping_ms *= scale;
      if (sample.first_record_ms >= 0.0) sample.first_record_ms *= scale;
    }
  }
  const EngineCacheStats cache_after = server->cache().stats();

  // Correctness: a seeded sample of responses must be byte-identical to
  // a cold in-process run of the same request.
  std::vector<const Sample*> all;
  for (const auto& list : samples) {
    for (const Sample& sample : list) all.push_back(&sample);
  }
  Rng pick(derive_stream_seed(options.seed, 0xc4ec, 0));
  for (unsigned i = 0; i < kCheckedResponses && !all.empty(); ++i) {
    const Sample& sample = *all[pick.next_below(all.size())];
    if (!sample.ok) continue;
    const std::string cold =
        cold_campaign_stats(request_of(kKeys[sample.key], sample.seed));
    if (cold != sample.stats_json) {
      report.ops.failed += 1;
      report.fail_check(std::string("response for ") +
                        kKeys[sample.key].kernel +
                        " differs from a cold in-process run");
    }
  }
  server->request_shutdown();
  server->wait();

  // Failed and busy submits count as missing any latency limit.
  const double miss_ms = wall * 1e3;
  std::vector<double> latency[2];  // [traced]
  double backend_seconds[2] = {0.0, 0.0};
  std::uint64_t backend_experiments[2] = {0, 0};
  std::vector<double> pings, first_records;
  std::uint64_t busy = 0, untraced_done = 0;
  for (const Sample* sample : all) {
    report.ops.add(sample->ok);
    busy += sample->busy ? 1 : 0;
    latency[sample->traced].push_back(sample->ok ? sample->latency_ms
                                                 : miss_ms);
    if (sample->traced) {
      if (sample->ping_ms >= 0.0) pings.push_back(sample->ping_ms);
      if (sample->first_record_ms >= 0.0) {
        first_records.push_back(sample->first_record_ms);
      }
      continue;
    }
    if (!sample->ok) continue;
    untraced_done += 1;
    const int jit = std::string(kKeys[sample->key].backend) == "jit" ? 1 : 0;
    backend_seconds[jit] += sample->latency_ms / 1e3;
    backend_experiments[jit] += sample->experiments;
  }
  const double untraced_share =
      static_cast<double>(latency[0].size()) / static_cast<double>(all.size());
  report.set("req_per_s", untraced_done / (wall * untraced_share), "1/s");
  if (!options.trace) report_request_latency(report, latency[0]);
  const double interp_eps = backend_experiments[0] / backend_seconds[0];
  const double jit_eps = backend_experiments[1] / backend_seconds[1];
  report.set("exp_per_s.interp", interp_eps, "experiments/s");
  report.set("exp_per_s.jit", jit_eps, "experiments/s");
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
  report_host(report, host);
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t misses = cache_after.misses - cache_before.misses;
  report.note("requests " + std::to_string(all.size()) + ", cache hits " +
              std::to_string(hits) + ", misses " + std::to_string(misses));
  for (std::size_t k = 0; k < kNumKeys; ++k) {
    std::vector<double> key_ms;
    for (const Sample* sample : all) {
      if (sample->key == k && sample->ok) key_ms.push_back(sample->latency_ms);
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "key %s/%s/%s/%s: %zu requests, p50 %.2f ms, max %.2f ms",
                  kKeys[k].kernel, kKeys[k].isa, kKeys[k].category,
                  kKeys[k].backend, key_ms.size(),
                  median(key_ms).value_or(0.0),
                  percentile(key_ms, 1.0).value_or(0.0));
    report.note(line);
  }
  if (!options.trace) return;

  report.set("jit.speedup", jit_eps / interp_eps, "ratio");
  if (pings.empty() || first_records.empty()) {
    report.fail_check("traced requests recorded no ping or first record");
  } else {
    report.set("serve.ping_ms", *median(pings), "ms");
    report.set("serve.first_record_ms", *median(first_records), "ms");
  }
  report.set("serve.cache_hit_frac",
             static_cast<double>(hits) / static_cast<double>(hits + misses),
             "ratio");
  report.set("serve.busy_frac",
             static_cast<double>(busy) / static_cast<double>(all.size()),
             "ratio");
  report.set("trace.overhead_frac",
             tracing_overhead(*median(latency[0]), *median(latency[1]), false)
                 .value_or(0.0),
             "ratio");
  probe_layers(kernel_names, options, report);
}

}  // namespace perfbench
