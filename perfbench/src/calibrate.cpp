#include "calibrate.hpp"

#include <sys/mman.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

/// Instructions of the calibration program, and how often one sample
/// runs it per thread (about 5 ms on the reference host).
constexpr std::size_t kProgramSize = 4096;
constexpr unsigned kRepeats = 96;
/// Dependent loads from a table four times a core's 2 MiB L2 cache on
/// the reference host, so they go to the L3 cache its tenants share
/// (about 15 ms there).
constexpr std::size_t kTableWords = std::size_t{1} << 21;  // 8 MiB
constexpr unsigned kLoads = 100000;
/// Fresh anonymous mappings one sample maps, touches page by page and
/// unmaps (about 6 ms on the reference host).
constexpr std::size_t kMapBytes = 256 * 1024;
constexpr std::size_t kPageBytes = 4096;
constexpr unsigned kMaps = 32;
/// Seconds one thread takes for one sample's work on the reference host:
/// a 4-vCPU KVM guest ("Intel Xeon Processor"), median over its drifting
/// speed. Speeds are reported relative to it.
constexpr double kReferenceSeconds = 0.026;

struct Instruction {
  std::uint8_t op, dst, a, b;
};

/// A fixed pseudo-random program for a small register machine with a
/// 64 KiB memory: the dispatch, branches and loads an interpreter makes.
const std::array<Instruction, kProgramSize>& program() {
  static const std::array<Instruction, kProgramSize> code = [] {
    std::array<Instruction, kProgramSize> out{};
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (Instruction& in : out) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      in = Instruction{static_cast<std::uint8_t>(x % 8),
                       static_cast<std::uint8_t>((x >> 8) % 16),
                       static_cast<std::uint8_t>((x >> 16) % 16),
                       static_cast<std::uint8_t>((x >> 24) % 16)};
    }
    return out;
  }();
  return code;
}

/// Runs the program kRepeats times; returns a checksum of the machine.
std::uint64_t run_program() {
  const auto& code = program();
  std::array<std::uint32_t, 16> reg{};
  for (unsigned i = 0; i < reg.size(); ++i) reg[i] = i * 2654435761u;
  std::array<std::uint32_t, 16384> mem{};
  for (unsigned repeat = 0; repeat < kRepeats; ++repeat) {
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      const Instruction in = code[pc];
      std::uint32_t& d = reg[in.dst];
      const std::uint32_t a = reg[in.a], b = reg[in.b];
      switch (in.op) {
        case 0: d = a + b; break;
        case 1: d = a ^ (b >> 3); break;
        case 2: d = a * (b | 1u); break;
        case 3: d = mem[(a ^ b) % mem.size()]; break;
        case 4: mem[(a + pc) % mem.size()] = b; break;
        case 5: d = (a << (b & 7)) | (a >> 25); break;
        case 6: d = a < b ? a - b : b - a; break;
        default:
          if ((a & 3u) == 0) ++pc;  // a data-dependent skip
          break;
      }
    }
  }
  std::uint64_t sum = 0;
  for (const std::uint32_t r : reg) sum = sum * 31 + r;
  for (std::size_t i = 0; i < mem.size(); i += 61) sum = sum * 31 + mem[i];
  return sum;
}

/// The load table of calibration thread `t`, filled once.
const std::vector<std::uint32_t>& table(unsigned t) {
  static std::mutex mutex;
  static std::vector<std::vector<std::uint32_t>> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  while (tables.size() <= t) {
    std::vector<std::uint32_t> words(kTableWords);
    std::uint64_t x = 0xD1B54A32D192ED03ull + tables.size();
    for (std::uint32_t& word : words) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = static_cast<std::uint32_t>(x);
    }
    tables.push_back(std::move(words));
  }
  return tables[t];
}

/// Follows kLoads dependent loads through `words`; returns their sum.
std::uint64_t chase(const std::vector<std::uint32_t>& words) {
  std::uint64_t sum = 0;
  std::uint32_t at = 0;
  for (unsigned i = 0; i < kLoads; ++i) {
    at = words[(at + i) & (kTableWords - 1)];
    sum += at;
  }
  return sum;
}

/// Maps, touches and unmaps fresh memory: the page faults and unmaps
/// that engine clones, arenas and JIT code buffers cost the program.
/// Returns a sum of the bytes written, 0 if a mapping failed.
std::uint64_t map_pages() {
  std::uint64_t sum = 0;
  for (unsigned m = 0; m < kMaps; ++m) {
    void* region = ::mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (region == MAP_FAILED) return 0;
    auto* bytes = static_cast<unsigned char*>(region);
    for (std::size_t at = 0; at < kMapBytes; at += kPageBytes) {
      bytes[at] = static_cast<unsigned char>(at / kPageBytes);
    }
    for (std::size_t at = 0; at < kMapBytes; at += kPageBytes) {
      sum += bytes[at];
    }
    ::munmap(region, kMapBytes);
  }
  return sum;
}

/// One thread's calibration: its speed relative to the reference.
double timed_run(const std::vector<std::uint32_t>& words,
                 std::uint64_t* checksum) {
  const auto start = std::chrono::steady_clock::now();
  *checksum = run_program() ^ chase(words) ^ map_pages();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return kReferenceSeconds / seconds;
}

}  // namespace

HostSpeed::HostSpeed(unsigned threads) : threads_(threads == 0 ? 1 : threads) {}

bool HostSpeed::sample() {
  std::vector<double> speed(threads_);
  std::vector<std::uint64_t> checksum(threads_);
  std::vector<std::thread> workers;
  for (unsigned t = 1; t < threads_; ++t) {
    workers.emplace_back(
        [&, t] { speed[t] = timed_run(table(t), &checksum[t]); });
  }
  speed[0] = timed_run(table(0), &checksum[0]);
  for (std::thread& worker : workers) worker.join();
  // Each thread's own duration, so thread start-up is not timed; the
  // mean speed is what threads sharing the timed work get.
  double sum = 0.0;
  bool ok = true;
  if (expected_.empty()) {
    for (unsigned t = 0; t < threads_; ++t) {
      expected_.push_back(run_program() ^ chase(table(t)) ^ map_pages());
    }
  }
  for (unsigned t = 0; t < threads_; ++t) {
    sum += speed[t];
    ok = ok && checksum[t] == expected_[t];
  }
  speeds_.push_back(sum / threads_);
  return ok;
}

double HostSpeed::reference_seconds(double seconds, std::size_t after) const {
  const double before = speeds_[after - 1];
  const double next = after < speeds_.size() ? speeds_[after] : before;
  return seconds * (before + next) / 2.0;
}

}  // namespace perfbench
