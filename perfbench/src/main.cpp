// perfbench: the repository's one named benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list
//
// Runs one workload from this process for S seconds of measurement,
// checks the program's outputs, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it records the machine and build.
// README.md in this directory defines the workloads and metrics.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "jit/backend.hpp"
#include "serve/protocol.hpp"
#include "support/version.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "       perfbench --list\n"
    "workloads: campaign-long, serve-short, study-sweep\n";

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"campaign-long",
                                                 "serve-short", "study-sweep"};
  return names;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Parses a whole decimal number in [lo, hi]; anything else is a usage
/// error. No argument ever names a file: outputs go to stdout/stderr.
std::uint64_t parse_number(const std::string& flag, const std::string& text,
                           std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage_error(flag + " needs a whole number, got '" + text + "'");
  }
  const std::uint64_t value = std::stoull(text);
  if (value < lo || value > hi) {
    usage_error(flag + " out of range: " + text);
  }
  return value;
}

void print_list() {
  std::printf("workloads:");
  for (const std::string& name : workload_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nend_to_end:");
  for (const std::string& name : end_to_end_metric_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nper_layer:");
  for (const std::string& name : per_layer_metric_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

unsigned machine_nproc() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  unsigned n = online > 0 ? static_cast<unsigned>(online) : hw;
  // Respect an affinity mask narrower than the online set (containers).
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    if (allowed > 0 && static_cast<unsigned>(allowed) < n) {
      n = static_cast<unsigned>(allowed);
    }
  }
  return n == 0 ? 1 : n;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      if (argc != 2) usage_error("--list takes no other argument");
      print_list();
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (arg != "--workload" && arg != "--seed" && arg != "--seconds" &&
        arg != "--trace") {
      usage_error("unknown argument '" + arg + "'");
    }
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      bool known = false;
      for (const std::string& name : workload_names()) known |= name == value;
      if (!known) usage_error("unknown workload '" + value + "'");
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = parse_number(arg, value, 0, ~0ULL >> 1);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_number(arg, value, 1, 600));
      have_seconds = true;
    } else {
      options.trace = parse_number(arg, value, 0, 1) == 1;
      have_trace = true;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }

  options.nproc = machine_nproc();
  const unsigned threads = workload_threads(options.workload);
  const bool jit_available = vulfi::jit::JitExecutor::available();
  std::printf(
      "{\"machine\": {\"nproc\": %u, \"threads_used\": %u, "
      "\"build_type\": \"%s\", \"build_fingerprint\": \"%s\", "
      "\"jit_available\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      options.nproc, threads, vulfi::build_type(),
      vulfi::serve::json_escape(vulfi::build_fingerprint()).c_str(),
      jit_available ? "true" : "false", options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  std::fflush(stdout);
  if (threads > options.nproc) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %u threads busy but this machine "
                 "offers %u; refusing to oversubscribe\n",
                 options.workload.c_str(), threads, options.nproc);
    return 1;
  }

  const std::filesystem::path work =
      std::filesystem::path(".bench_build") /
      ("run-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 work.c_str(), ec.message().c_str());
    return 1;
  }
  options.work_dir = work.string();

  Report report;
  // The workloads count their jit operations as failed; this also marks
  // a traced run, whose probes would time the interpreter under jit names.
  if (!jit_available) {
    report.fail_check("executable memory is unavailable: jit figures "
                      "cannot be measured");
  }
  if (options.workload == "campaign-long") {
    run_campaign_long(options, report);
  } else if (options.workload == "serve-short") {
    run_serve_short(options, report);
  } else {
    run_study_sweep(options, report);
  }
  std::filesystem::remove_all(work, ec);

  const std::vector<std::string>& wanted =
      options.trace ? per_layer_metric_names() : end_to_end_metric_names();
  for (const std::string& name : wanted) {
    if (!report.has(name)) report.fail_check("metric " + name + " missing");
  }
  for (const std::string& failure : report.check_failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.result_json(wanted).c_str());
  return 0;
}
