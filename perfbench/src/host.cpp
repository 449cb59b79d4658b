#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

std::optional<double> nearest_rank(std::vector<double> samples, double p) {
  constexpr std::size_t kMinBeyond = 10;
  if (samples.empty() || !(p > 0.0) || p > 1.0) return std::nullopt;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<CpuTicks> parse_proc_stat(std::string_view text) {
  const auto eol = text.find('\n');
  std::string_view line = text.substr(0, eol);
  if (line.substr(0, 4) != "cpu ") return std::nullopt;
  line.remove_prefix(4);
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t f[8] = {};
  int parsed = 0;
  while (parsed < 8) {
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty()) break;
    const auto [ptr, ec] = std::from_chars(line.data(), line.data() + line.size(), f[parsed]);
    if (ec != std::errc() || (ptr != line.data() + line.size() && *ptr != ' ')) {
      return std::nullopt;
    }
    line.remove_prefix(static_cast<std::size_t>(ptr - line.data()));
    ++parsed;
  }
  // Kernels before 2.6.11 print fewer fields; the first four are required.
  if (parsed < 4) return std::nullopt;
  CpuTicks t;
  t.busy = f[0] + f[1] + f[2] + f[5] + f[6];
  t.idle = f[3] + f[4];
  t.steal = f[7];
  return t;
}

HostSample HostSample::now() {
  HostSample s;
  std::ifstream in("/proc/stat");
  std::string line;
  if (std::getline(in, line)) {
    if (auto t = parse_proc_stat(line)) s.ticks = *t;
  }
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    s.usage.invol_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
  return s;
}

HostNoise host_noise(const HostSample& before, const HostSample& after) {
  HostNoise n;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return b >= a ? static_cast<double>(b - a) : 0.0;
  };
  const double busy = d(before.ticks.busy, after.ticks.busy);
  const double idle = d(before.ticks.idle, after.ticks.idle);
  const double steal = d(before.ticks.steal, after.ticks.steal);
  const double total = busy + idle + steal;
  if (total > 0.0) n.steal_ratio = steal / total;
  if (busy + idle > 0.0) n.cpu_util = busy / (busy + idle);
  n.invol_csw = d(before.usage.invol_csw, after.usage.invol_csw);
  n.cpu_s = after.usage.cpu_s - before.usage.cpu_s;
  return n;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
