// End-to-end benchmark of the pragma advisor: a SuggestServer over a
// trained Pipeline, driven by closed-loop clients with one of two seeded
// workloads (README.md here). Prints human-readable lines, then one JSON
// object as the last line of stdout:
//   --trace 0: the end-to-end metrics, measured with tracing off;
//   --trace 1: the per-layer metrics of a traced replay of the same inputs.
// Exit codes: 0 ok, 1 a check failed (wrong output, failed request, replay
// that does not reconcile), 2 bad arguments.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "core/pipeline.h"
#include "host.h"
#include "replay.h"
#include "serve/server.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Expected;
using perfbench::Workload;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Set-up is repeated and its median reported, so one slow training run on
// a noisy host does not move setup_s. Set-up time is process CPU time: its
// wall time follows the host's steal regime (README.md).
constexpr int kSetupRepeats = 3;
constexpr int kTrainEpochs = 2;
constexpr int kRounds = 5;
// Server pool workers. On the 4-vCPU reference host the clients, the
// scheduler and the serve worker then keep cores of their own: with 4
// workers the host reported 2-3x the hypervisor steal (0.10 vs 0.03-0.05)
// at the same throughput, and wall-clock figures swung with it.
constexpr unsigned kServerPoolThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args.seconds < 1 || args.seconds > 600) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) return std::nullopt;
  return args;
}

using Lanes = std::vector<std::span<const std::size_t>>;
using ColdFlags = std::vector<std::span<const char>>;

/// What a set of closed-loop clients observed.
struct Phase {
  double wall_s = 0.0;
  perfbench::HostNoise host;
  std::vector<double> cold_ms;  // latencies of requests that carry work
  std::vector<double> hit_ms;   // latencies of repeats (full-result hits)
  std::size_t attempted = 0;
  std::size_t failed = 0;      // exception from submit or from the future
  std::size_t mismatched = 0;  // served, but not what the reference says
  std::size_t loops = 0;
  std::size_t label_agree = 0;
  std::string first_error;

  void merge(const Phase& other) {
    cold_ms.insert(cold_ms.end(), other.cold_ms.begin(), other.cold_ms.end());
    hit_ms.insert(hit_ms.end(), other.hit_ms.begin(), other.hit_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    mismatched += other.mismatched;
    loops += other.loops;
    label_agree += other.label_agree;
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// Closed loop: each client submits, blocks on the future, checks the
/// answer, and only then sends its next request. With `shared` every
/// client pulls from lanes[0]; otherwise client c walks lanes[c].
Phase drive(g2p::SuggestServer& server, const Workload& w, const Lanes& lanes,
            const ColdFlags& cold, bool shared, const std::vector<Expected>& expected) {
  Phase phase;
  std::mutex merge_mutex;
  std::atomic<std::size_t> next{0};
  const auto client = [&](unsigned c) {
    Phase local;
    const auto lane = lanes[shared ? 0 : c];
    const auto lane_cold = cold[shared ? 0 : c];
    for (std::size_t k = 0;; ++k) {
      const std::size_t at = shared ? next.fetch_add(1, std::memory_order_relaxed) : k;
      if (at >= lane.size()) break;
      const std::size_t id = lane[at];
      std::string text = w.sources[id].text;
      ++local.attempted;
      try {
        const auto start = Clock::now();
        auto future = server.submit(std::move(text));
        const auto served = future.get();
        const double ms = seconds_between(start, Clock::now()) * 1e3;
        (lane_cold[at] ? local.cold_ms : local.hit_ms).push_back(ms);
        if (!perfbench::matches(expected[id], served)) {
          if (local.mismatched++ == 0) {
            local.first_error = "source " + std::to_string(id) + " differs from its reference";
          }
          continue;
        }
        local.loops += served.size();
        local.label_agree += expected[id].label_agree;
      } catch (const std::exception& e) {
        if (local.failed++ == 0) local.first_error = e.what();
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    phase.merge(local);
  };
  const unsigned clients = shared ? w.clients : static_cast<unsigned>(lanes.size());
  const auto host_before = perfbench::HostSample::now();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  phase.wall_s = seconds_between(start, Clock::now());
  phase.host = perfbench::host_noise(host_before, perfbench::HostSample::now());
  return phase;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

struct Metric {
  double value;
  const char* unit;
};

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%d trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  const auto gen_start = Clock::now();
  const Workload w = perfbench::make_workload(args.workload, args.seed, args.seconds);
  std::printf("inputs: %zu distinct sources, %zu warm + %zu measured requests, %u clients"
              " (generated in %.2f s)\n",
              w.sources.size(), w.warm.size(), w.requests(), w.clients,
              seconds_between(gen_start, Clock::now()));
  std::fflush(stdout);

  g2p::Pipeline::Options options;
  options.train.epochs = kTrainEpochs;
  g2p::SuggestServer::Options server_options;
  // A batch closes as soon as every closed-loop client has a request in,
  // never on the batching timer.
  server_options.max_batch_loops = w.clients;
  server_options.pool_threads = kServerPoolThreads;

  // Set-up, repeated: train, construct the server, serve the warm phase.
  // The reference is computed once, between training and serving, and is
  // not part of set-up time (it is the checker, not the system).
  std::vector<Expected> expected;
  std::vector<double> setup_s, train_s, warm_s, setup_wall_s;
  const auto cpu_now = [] { return perfbench::HostSample::now().usage.cpu_s; };
  std::shared_ptr<g2p::Pipeline> pipeline;
  std::unique_ptr<g2p::SuggestServer> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    pipeline.reset();
    const auto t0 = Clock::now();
    const double cpu0 = cpu_now();
    pipeline = std::make_shared<g2p::Pipeline>(g2p::Pipeline::train(options));
    const double cpu1 = cpu_now();
    const auto t1 = Clock::now();
    if (expected.empty()) {
      const auto ref_start = Clock::now();
      expected = perfbench::compute_references(*pipeline, w);
      std::printf("reference: %zu sources, cache-off per-source suggest, %.2f s\n",
                  expected.size(), seconds_between(ref_start, Clock::now()));
      // peak_rss_mb is the system's peak, not the checker's.
      if (!perfbench::reset_peak_rss()) {
        std::fprintf(stderr, "FAIL: cannot reset the peak RSS counter\n");
        return 1;
      }
    }
    const auto t2 = Clock::now();
    const double cpu2 = cpu_now();
    server = std::make_unique<g2p::SuggestServer>(pipeline, server_options);
    const std::vector<char> warm_cold(w.warm.size(), 1);
    const Phase warm = drive(*server, w, {w.warm}, {warm_cold}, true, expected);
    const double cpu3 = cpu_now();
    const auto t3 = Clock::now();
    if (warm.failed + warm.mismatched > 0) {
      std::fprintf(stderr, "FAIL: warm phase: %s\n", warm.first_error.c_str());
      return 1;
    }
    train_s.push_back(cpu1 - cpu0);
    warm_s.push_back(cpu3 - cpu2);
    setup_s.push_back(train_s.back() + warm_s.back());
    setup_wall_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
  }
  std::printf("setup (median of %d): CPU %.3f s (train %.3f s, server + warm %.3f s);"
              " wall %.3f s\n",
              kSetupRepeats, median(setup_s), median(train_s), median(warm_s),
              median(setup_wall_s));

  // Measured phase, in rounds: consecutive slices of every lane. Each
  // round yields its own rate, CPU cost and latency percentiles; the run
  // reports their medians, so a burst of host noise inside one round does
  // not move the result.
  const auto stats_before = server->stats();
  const auto host_before = perfbench::HostSample::now();
  Phase phase;
  std::vector<double> round_lps, round_cpu, round_p50, round_p90;
  for (int r = 0; r < kRounds; ++r) {
    Lanes lanes;
    ColdFlags cold;
    for (std::size_t k = 0; k < w.lanes.size(); ++k) {
      const std::size_t n = w.lanes[k].size();
      const std::size_t begin = n * static_cast<std::size_t>(r) / kRounds;
      const std::size_t end = n * static_cast<std::size_t>(r + 1) / kRounds;
      lanes.emplace_back(w.lanes[k].data() + begin, end - begin);
      cold.emplace_back(w.cold[k].data() + begin, end - begin);
    }
    const Phase round = drive(*server, w, lanes, cold, w.shared_lanes, expected);
    const double round_loops = std::max(static_cast<double>(round.loops), 1.0);
    round_lps.push_back(static_cast<double>(round.loops) / round.wall_s);
    round_cpu.push_back(round.host.cpu_s * 1e6 / round_loops);
    round_p50.push_back(perfbench::nearest_rank(round.cold_ms, 0.50).value_or(NAN));
    round_p90.push_back(perfbench::nearest_rank(round.cold_ms, 0.90).value_or(NAN));
    std::printf("round %d: %zu requests in %.3f s: %.1f loops/s, %.2f us CPU/loop, p50 %.3f ms,"
                " p90 %.3f ms over %zu working requests; host steal %.4f\n",
                r, round.attempted, round.wall_s, round_lps.back(), round_cpu.back(),
                round_p50.back(), round_p90.back(), round.cold_ms.size(),
                round.host.steal_ratio);
    phase.wall_s += round.wall_s;
    phase.merge(round);
  }
  phase.host = perfbench::host_noise(host_before, perfbench::HostSample::now());
  const auto stats = server->stats();
  server->shutdown();

  const double attempted = static_cast<double>(phase.attempted);
  const double error_rate = attempted == 0 ? 1.0 : static_cast<double>(phase.failed) / attempted;
  bool ok = phase.failed == 0 && phase.mismatched == 0 && phase.loops > 0;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %zu failed, %zu wrong of %zu requests: %s\n", phase.failed,
                 phase.mismatched, phase.attempted, phase.first_error.c_str());
  }
  const auto finite = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
  };
  if (!finite(round_p50) || !finite(round_p90)) {
    std::fprintf(stderr, "FAIL: a round has too few working requests for p90 (need 10 beyond)\n");
    ok = false;
  }
  const double loops = static_cast<double>(phase.loops);
  // The bounded end-to-end metrics (BENCHMARK.json): the ones that hold
  // still on a shared host. Wall-clock rate and latency swing with
  // hypervisor steal (README.md), so they are printed here and reported,
  // unbounded, as serve.* metrics of the traced run.
  const std::map<std::string, Metric> e2e = {
      {"setup_s", {median(setup_s), "s"}},
      {"cpu_us_per_loop", {median(round_cpu), "us"}},
      {"accuracy", {static_cast<double>(phase.label_agree) / std::max(loops, 1.0), "ratio"}},
      {"peak_rss_mb", {perfbench::peak_rss_mb(), "MB"}},
  };
  const std::map<std::string, Metric> wall = {
      {"loops_per_s", {median(round_lps), "loops/s"}},
      {"latency_p50_ms", {median(round_p50), "ms"}},
      {"latency_p90_ms", {median(round_p90), "ms"}},
      {"error_rate", {error_rate, "ratio"}},
  };
  std::printf("measured: %zu requests (%zu carry work, %zu repeat), %zu loops in %.3f s;"
              " latency percentiles over the working requests, median of %d rounds\n",
              phase.attempted, phase.cold_ms.size(), phase.hit_ms.size(), phase.loops,
              phase.wall_s, kRounds);
  for (const auto* metrics : {&e2e, &wall}) {
    for (const auto& [name, m] : *metrics) {
      std::printf("  %-18s %14.6f %s\n", name.c_str(), m.value, m.unit);
    }
  }
  std::printf("host (measured phase): steal_ratio %.4f, cpu_util %.3f, invol_csw %.0f\n",
              phase.host.steal_ratio, phase.host.cpu_util, phase.host.invol_csw);

  if (!args.trace) {
    print_json(ok, phase.attempted, phase.failed + phase.mismatched, e2e);
    return ok ? 0 : 1;
  }

  // Traced replay, batched at the mean batch size the server achieved.
  const double mean_batch =
      static_cast<double>(stats.batched_requests - stats_before.batched_requests) /
      static_cast<double>(std::max<std::uint64_t>(stats.batches - stats_before.batches, 1));
  perfbench::ReplayOptions replay_options;
  replay_options.batch_size = static_cast<std::size_t>(std::max(1.0, std::round(mean_batch)));
  replay_options.max_requests = w.replay_requests;
  replay_options.spans_path = args.spans_path;
  server.reset();
  const auto replay_host = perfbench::HostSample::now();
  perfbench::ReplayResult replayed =
      perfbench::replay(*pipeline, w, expected, replay_options);
  const auto replay_noise = perfbench::host_noise(replay_host, perfbench::HostSample::now());
  for (const auto& e : replayed.errors) std::fprintf(stderr, "FAIL: traced run: %s\n", e.c_str());
  ok = ok && replayed.errors.empty();

  std::map<std::string, Metric> layers;
  const auto unit_of = [](const std::string& name) -> const char* {
    if (name.ends_with("_ms")) return "ms";
    if (name.ends_with("_s")) return "s";
    if (name.ends_with("us_per_kb")) return "us/KB";
    if (name.ends_with("us_per_loop")) return "us";
    if (name.ends_with("_ratio") || name.ends_with("_util")) return "ratio";
    if (name.ends_with("_per_loop") || name.ends_with("_per_batch") ||
        name.ends_with("batch_size")) {
      return "mean";
    }
    return "count";
  };
  for (const auto& [name, value] : replayed.metrics) layers[name] = {value, unit_of(name)};
  const auto put = [&](const char* name, double value) { layers[name] = {value, unit_of(name)}; };
  put("setup.train_s", median(train_s));
  put("setup.warm_s", median(warm_s));
  put("serve.mean_batch_size", mean_batch);
  put("serve.deduped", static_cast<double>(stats.deduped - stats_before.deduped));
  put("serve.retries", static_cast<double>(stats.retries - stats_before.retries));
  put("serve.shed", static_cast<double>(stats.shed - stats_before.shed));
  put("serve.expired", static_cast<double>(stats.expired - stats_before.expired));
  put("serve.latency_p99_ms", perfbench::nearest_rank(phase.cold_ms, 0.99).value_or(0.0));
  put("serve.hit_latency_p50_ms", perfbench::nearest_rank(phase.hit_ms, 0.50).value_or(0.0));
  put("serve.overhead_ms", median(round_p50) - replayed.metrics["pipeline.batch_ms"]);
  for (const char* name : {"loops_per_s", "latency_p50_ms", "latency_p90_ms"}) {
    layers[std::string("serve.") + name] = wall.at(name);
  }
  put("host.steal_ratio", phase.host.steal_ratio);
  put("host.cpu_util", phase.host.cpu_util);
  put("host.invol_csw", phase.host.invol_csw);
  const double traced_cpu_us =
      replayed.cpu_s * 1e6 / std::max(static_cast<double>(replayed.loops), 1.0);
  put("trace.cpu_us_per_loop", traced_cpu_us);
  put("trace.overhead_ratio", traced_cpu_us / e2e.at("cpu_us_per_loop").value);

  std::printf("traced replay: batch %zu, %zu loops in %.3f s (%.1f loops/s, %.2f us CPU/loop;"
              " untraced %.1f loops/s, %.2f us CPU/loop)\n",
              replay_options.batch_size, replayed.loops, replayed.wall_s,
              static_cast<double>(replayed.loops) / replayed.wall_s, traced_cpu_us,
              wall.at("loops_per_s").value, e2e.at("cpu_us_per_loop").value);
  std::printf("traced replay: %zu requests, %zu repeat a published text (share %.4f);"
              " measured pipeline.full_hit_ratio %.4f\n",
              replayed.requests, replayed.planned_hits,
              static_cast<double>(replayed.planned_hits) /
                  static_cast<double>(std::max<std::size_t>(replayed.requests, 1)),
              replayed.metrics["pipeline.full_hit_ratio"]);
  std::printf("host (traced replay): steal_ratio %.4f, cpu_util %.3f, invol_csw %.0f\n",
              replay_noise.steal_ratio, replay_noise.cpu_util, replay_noise.invol_csw);
  for (const auto& [name, m] : layers) {
    std::printf("  %-26s %14.6f %s\n", name.c_str(), m.value, m.unit);
  }
  print_json(ok, phase.attempted, phase.failed + phase.mismatched, layers);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload project_scan|edit_session"
                 " --seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
}
