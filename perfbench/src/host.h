// Measurement helpers of the benchmark: percentiles, process CPU time, and
// host-noise counters read from /proc.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 1]): the value at rank ceil(p * n) of
/// the sorted samples. Refuses (nullopt) unless at least 10 samples lie
/// strictly beyond that rank, so a tail is never read off a handful of
/// points.
std::optional<double> nearest_rank(std::vector<double> samples, double p);

/// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t busy = 0;   // user + nice + system + irq + softirq
  std::uint64_t idle = 0;   // idle + iowait
  std::uint64_t steal = 0;  // time the hypervisor ran someone else
  std::uint64_t total() const { return busy + idle + steal; }
};

/// Parse the first ("cpu ") line of /proc/stat text. Guest time is already
/// inside user/nice and is not counted twice. nullopt on malformed input.
std::optional<CpuTicks> parse_proc_stat(std::string_view text);

/// Process-wide resource counters (getrusage RUSAGE_SELF).
struct ProcUsage {
  double cpu_s = 0.0;                // user + system CPU seconds
  std::uint64_t invol_csw = 0;       // involuntary context switches
};

/// One snapshot of host and process counters; differences of two snapshots
/// give the host-noise figures of a phase.
struct HostSample {
  CpuTicks ticks;
  ProcUsage usage;
  static HostSample now();
};

struct HostNoise {
  double steal_ratio = 0.0;  // steal ticks / all ticks, whole host
  double cpu_util = 0.0;     // busy ticks / (busy + idle), whole host
  double invol_csw = 0.0;    // this process's involuntary switches
  double cpu_s = 0.0;        // this process's CPU seconds
};
HostNoise host_noise(const HostSample& before, const HostSample& after);

/// Peak resident set size of this process (VmHWM), in MB; 0 if unreadable.
double peak_rss_mb();

/// Restart VmHWM from the current RSS (/proc/self/clear_refs, Linux >= 4.0).
bool reset_peak_rss();

}  // namespace perfbench
