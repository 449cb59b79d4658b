// Replica bench: availability of the replicated serving layer with one
// replica killed and one quarantined mid-stream under failpoint injection,
// plus the zero-downtime rollout gate.
//
// Trains a small pipeline, clones it into a ReplicaSet (default 4 replicas,
// G2P_REPLICAS overrides), and fires an open-loop stream sized to one
// sequential worker's capacity while `replica.route` and `encode.forward`
// faults are injected. At ~40% of the stream one replica is killed and
// another quarantined. Gates:
//
//   1. Every admitted future completes — a value or a typed error.
//   2. Fault-free results are bitwise-identical to a clean single-pipeline
//      run (replicas are weight-identical clones; routing must not change
//      answers).
//   3. Non-shed availability >= G2P_REPLICA_FLOOR (default 0.99): of the
//      requests the set accepted and did not deliberately shed, the
//      fraction answering with a value.
//   4. Rollout: a clean canary auto-promotes every replica; a poisoned
//      canary (well-formed checkpoint, untrained weights) auto-rolls-back —
//      both under live traffic with zero failed client futures.
//
// Knobs: G2P_SCALE / G2P_EPOCHS / G2P_SEED as in bench_common.h, plus
// G2P_REPLICAS, G2P_REPLICA_REQUESTS (default 384) and G2P_REPLICA_FLOOR.
// A G2P_FAILPOINTS schedule from the env wins over the built-in default
// (the CI smoke job randomizes seeds through it).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "serve/errors.h"
#include "serve/replica_set.h"
#include "support/failpoint.h"
#include "support/table.h"

namespace {

using g2p::bench::Clock;
using g2p::bench::seconds_since;

/// Route faults exercise reroute/failover; forward faults exercise the
/// replica-attributable failover path end to end. Probabilities low enough
/// that bounded failover (and the inner retry ladder) absorbs nearly all.
constexpr const char* kDefaultSchedule =
    "replica.route=error@0.02,201;"
    "encode.forward=error@0.01,202";

bool bitwise_equal(const std::vector<g2p::LoopSuggestion>& a,
                   const std::vector<g2p::LoopSuggestion>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].parallel != b[i].parallel || a[i].category != b[i].category ||
        a[i].suggested_pragma != b[i].suggested_pragma || a[i].line != b[i].line ||
        std::memcmp(&a[i].confidence, &b[i].confidence, sizeof(a[i].confidence)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g2p;
  const auto env = bench::BenchEnv::from_env();
  const std::string json_path = bench::json_path_from_args(argc, argv);
  // A G2P_FAILPOINTS schedule is armed at process start. Hold it back until
  // training, calibration and the clean reference are done: a fault
  // injected there would abort the bench before the measured stream starts.
  const std::string env_schedule = failpoint::active_spec();
  failpoint::disarm();

  Pipeline::Options options;
  options.corpus = env.generator_config();
  options.corpus.scale = std::max(env.scale, 0.01);
  options.train.epochs = std::min(env.epochs, 2);
  options.train.seed = env.seed;
  std::printf("training pipeline (scale %.3f, %d epochs)...\n", options.corpus.scale,
              options.train.epochs);
  Pipeline pipeline = Pipeline::train(options);

  GeneratorConfig fresh = env.generator_config();
  fresh.scale = std::max(env.scale * 2.0, 0.04);
  fresh.seed = env.seed + 1;
  const Corpus corpus = CorpusGenerator(fresh).generate();
  std::vector<std::string> sources;
  std::set<std::string_view> seen;
  constexpr std::size_t kDistinct = 32;
  for (const auto& sample : corpus.samples) {
    if (seen.insert(sample.file_source).second) sources.push_back(sample.file_source);
    if (sources.size() == kDistinct) break;
  }
  if (sources.size() < kDistinct) {
    std::printf("FAIL: only %zu distinct files generated (need %zu); raise G2P_SCALE\n",
                sources.size(), kDistinct);
    return 1;
  }

  std::size_t replicas = 4;
  if (const char* env_r = std::getenv("G2P_REPLICAS")) {
    const long v = std::atol(env_r);
    if (v > 0) replicas = static_cast<std::size_t>(v);
  }
  std::size_t num_requests = 384;
  if (const char* env_n = std::getenv("G2P_REPLICA_REQUESTS")) {
    num_requests = static_cast<std::size_t>(std::strtoull(env_n, nullptr, 10));
  }
  double floor = 0.99;
  if (const char* env_floor = std::getenv("G2P_REPLICA_FLOOR")) floor = std::atof(env_floor);

  // Clean single-pipeline reference: the bitwise expectation for every
  // source, computed before any fault is armed.
  std::vector<std::vector<LoopSuggestion>> expected;
  expected.reserve(sources.size());
  for (const auto& src : sources) expected.push_back(pipeline.suggest(src));

  // Capacity calibration, as in bench_chaos: mean sequential service time.
  pipeline.set_cache_bytes(0);
  double total_service = 0.0;
  {
    const auto start = Clock::now();
    for (const auto& src : sources) (void)pipeline.suggest(src);
    total_service = seconds_since(start);
  }
  const double mean_service = total_service / static_cast<double>(sources.size());
  pipeline.set_cache_bytes(64u << 20);
  pipeline.clear_cache();

  failpoint::configure(env_schedule.empty() ? kDefaultSchedule : env_schedule);
  const std::string schedule = failpoint::active_spec();
  std::printf("fault schedule: %s | %zu replicas\n", schedule.c_str(), replicas);

  ReplicaSet::Options set_options;
  set_options.replicas = replicas;
  set_options.server.max_batch_loops = 32;
  set_options.server.max_delay = std::chrono::milliseconds(2);
  set_options.server.max_queue_depth = 256;
  set_options.server.max_retries = 2;
  set_options.server.retry_backoff = std::chrono::milliseconds(1);
  set_options.server.batch_budget = std::chrono::milliseconds(2000);
  set_options.hedge_percentile = 0.95;  // hedge the worst stragglers
  set_options.hedge_floor = std::chrono::milliseconds(25);
  auto set = std::make_unique<ReplicaSet>(pipeline, set_options);

  const double interval_s = mean_service;
  std::printf("mean sequential service: %.3f ms | open-loop interval: %.3f ms | %zu requests\n",
              mean_service * 1e3, interval_s * 1e3, num_requests);

  const std::size_t kill_at = (num_requests * 2) / 5;
  std::vector<std::future<std::vector<LoopSuggestion>>> futures(num_requests);
  std::vector<char> admitted(num_requests, 0);
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> admission_shed{0};
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::size_t i = 0; i < num_requests; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) * interval_s)));
      if (i == kill_at) {
        std::printf("mid-stream: killing replica 1, quarantining replica 2\n");
        set->kill(1);
        if (replicas > 2) set->quarantine(2);
      }
      try {
        futures[i] = set->submit(sources[i % sources.size()]);
        admitted[i] = 1;
      } catch (const Overloaded&) {
        admission_shed.fetch_add(1, std::memory_order_relaxed);
      }
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  std::size_t completed = 0, injected_faults = 0, typed_errors = 0, untyped_errors = 0;
  std::size_t ladder_shed = 0, bitwise_mismatch = 0;
  std::vector<double> latency_s;
  latency_s.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    if (!admitted[i]) continue;
    try {
      const auto got = futures[i].get();
      ++completed;
      latency_s.push_back(seconds_since(t0) - static_cast<double>(i) * interval_s);
      if (!bitwise_equal(got, expected[i % sources.size()])) ++bitwise_mismatch;
    } catch (const Overloaded&) {
      ++ladder_shed;  // deliberate load shedding, not a failure
    } catch (const failpoint::FailpointError&) {
      ++injected_faults;
    } catch (const ServeError&) {
      ++typed_errors;
    } catch (const std::exception& e) {
      ++untyped_errors;
      std::printf("UNTYPED error on request %zu: %s\n", i, e.what());
    }
  }
  producer.join();
  const auto stats = set->stats();
  set->shutdown();
  // Stamp the header while the measured stream's schedule is still armed:
  // the rollout gate below runs clean, and an injected run must not record
  // `failpoints: ""`.
  bench::JsonMetrics json;
  bench::set_common_header(json, "replica");
  failpoint::disarm();

  const std::size_t shed_total = admission_shed.load() + ladder_shed;
  const std::size_t not_shed = num_requests - std::min(num_requests, shed_total);
  const double availability =
      not_shed == 0 ? 0.0
                    : static_cast<double>(completed) / static_cast<double>(not_shed);

  // ---- rollout gate: clean promotes, poisoned rolls back ----
  // Fresh fleet (the chaos fleet lost a replica), live traffic throughout.
  const std::string clean_ckpt = "bench_replica_clean.bin";
  const std::string clean_vocab = "bench_replica_clean_vocab.txt";
  const std::string poison_ckpt = "bench_replica_poison.bin";
  const std::string poison_vocab = "bench_replica_poison_vocab.txt";
  bool rollout_ok = false, rollback_ok = false;
  std::size_t rollout_traffic_failures = 0;
  if (!pipeline.save(clean_ckpt, clean_vocab)) {
    std::printf("FAIL: could not save the clean checkpoint\n");
    return 1;
  }
  {
    Pipeline::Options untrained_options = options;
    untrained_options.train.epochs = 0;  // random init: loads cleanly, wrong
    Pipeline untrained = Pipeline::train(untrained_options);
    if (!untrained.save(poison_ckpt, poison_vocab)) {
      std::printf("FAIL: could not save the poisoned checkpoint\n");
      return 1;
    }
  }
  {
    ReplicaSet::Options rollout_options;
    rollout_options.replicas = replicas;
    rollout_options.server.max_delay = std::chrono::milliseconds(2);
    ReplicaSet fleet(pipeline, rollout_options);
    std::atomic<bool> done{false};
    std::atomic<std::size_t> traffic_failures{0};
    std::thread traffic([&] {
      std::size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        try {
          (void)fleet.submit(sources[i++ % sources.size()]).get();
        } catch (...) {
          traffic_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    const std::vector<std::string> shadow(sources.begin(), sources.begin() + 16);
    const RolloutReport clean = fleet.rollout(clean_ckpt, shadow);
    rollout_ok = clean.ok && clean.promoted == replicas;
    std::printf("clean rollout: ok=%d promoted=%zu diffed=%zu mismatched=%zu (%s)\n",
                clean.ok ? 1 : 0, clean.promoted, clean.diffed, clean.mismatched,
                clean.reason.empty() ? "clean" : clean.reason.c_str());
    const RolloutReport poisoned = fleet.rollout(poison_ckpt, shadow);
    rollback_ok = !poisoned.ok && poisoned.rolled_back;
    std::printf("poisoned rollout: ok=%d rolled_back=%d mismatch %zu/%zu (%s)\n",
                poisoned.ok ? 1 : 0, poisoned.rolled_back ? 1 : 0, poisoned.mismatched,
                poisoned.diffed, poisoned.reason.c_str());
    done.store(true, std::memory_order_release);
    traffic.join();
    rollout_traffic_failures = traffic_failures.load();
  }
  std::remove(clean_ckpt.c_str());
  std::remove(clean_vocab.c_str());
  std::remove(poison_ckpt.c_str());
  std::remove(poison_vocab.c_str());

  TextTable table({"metric", "value"});
  table.add_row({"replicas", std::to_string(replicas)});
  table.add_row({"requests", std::to_string(num_requests)});
  table.add_row({"completed", std::to_string(completed)});
  table.add_row({"bitwise mismatches", std::to_string(bitwise_mismatch)});
  table.add_row({"injected faults surfaced", std::to_string(injected_faults)});
  table.add_row({"typed serve errors", std::to_string(typed_errors)});
  table.add_row({"shed (admission + ladder)", std::to_string(shed_total)});
  table.add_row({"availability (non-shed)", fmt_fixed(availability * 100.0, 2) + "%"});
  table.add_row({"p50 (ms)", fmt_fixed(bench::percentile(latency_s, 0.50) * 1e3, 2)});
  table.add_row({"p99 (ms)", fmt_fixed(bench::percentile(latency_s, 0.99) * 1e3, 2)});
  table.add_row({"affinity / stolen / rerouted",
                 std::to_string(stats.affinity_routed) + " / " + std::to_string(stats.stolen) +
                     " / " + std::to_string(stats.rerouted)});
  table.add_row({"failovers / route faults", std::to_string(stats.failovers) + " / " +
                                                 std::to_string(stats.route_faults)});
  table.add_row({"hedges / wins", std::to_string(stats.hedges) + " / " +
                                      std::to_string(stats.hedge_wins)});
  table.add_row({"quarantines / reinstated", std::to_string(stats.quarantines) + " / " +
                                                 std::to_string(stats.reinstated)});
  table.add_row({"rollout clean / rollback", std::string(rollout_ok ? "ok" : "FAIL") + " / " +
                                                 (rollback_ok ? "ok" : "FAIL")});
  std::printf("%s", table.render().c_str());

  bool ok = true;
  if (untyped_errors != 0) {
    std::printf("FAIL: %zu untyped errors escaped to clients\n", untyped_errors);
    ok = false;
  }
  if (bitwise_mismatch != 0) {
    std::printf("FAIL: %zu fault-free results diverged from the clean reference\n",
                bitwise_mismatch);
    ok = false;
  }
  if (availability < floor) {
    std::printf("FAIL: availability %.4f below the %.4f floor\n", availability, floor);
    ok = false;
  }
  if (!rollout_ok || !rollback_ok) {
    std::printf("FAIL: rollout gate (clean ok=%d, rollback ok=%d)\n", rollout_ok ? 1 : 0,
                rollback_ok ? 1 : 0);
    ok = false;
  }
  if (rollout_traffic_failures != 0) {
    std::printf("FAIL: %zu client futures failed during rollouts\n",
                rollout_traffic_failures);
    ok = false;
  }
  std::printf("availability %.4f (floor %.4f)\n", availability, floor);

  json.set("replicas", static_cast<std::int64_t>(replicas));
  json.set("requests", static_cast<std::int64_t>(num_requests));
  json.set("completed", static_cast<std::int64_t>(completed));
  json.set("bitwise_mismatches", static_cast<std::int64_t>(bitwise_mismatch));
  json.set("injected_faults_surfaced", static_cast<std::int64_t>(injected_faults));
  json.set("typed_errors", static_cast<std::int64_t>(typed_errors));
  json.set("untyped_errors", static_cast<std::int64_t>(untyped_errors));
  json.set("shed", static_cast<std::int64_t>(shed_total));
  json.set("availability", availability);
  json.set("availability_floor", floor);
  json.set("p50_ms", bench::percentile(latency_s, 0.50) * 1e3);
  json.set("p99_ms", bench::percentile(latency_s, 0.99) * 1e3);
  json.set("affinity_routed", static_cast<std::int64_t>(stats.affinity_routed));
  json.set("stolen", static_cast<std::int64_t>(stats.stolen));
  json.set("rerouted", static_cast<std::int64_t>(stats.rerouted));
  json.set("failovers", static_cast<std::int64_t>(stats.failovers));
  json.set("route_faults", static_cast<std::int64_t>(stats.route_faults));
  json.set("hedges", static_cast<std::int64_t>(stats.hedges));
  json.set("hedge_wins", static_cast<std::int64_t>(stats.hedge_wins));
  json.set("hedge_cancelled", static_cast<std::int64_t>(stats.hedge_cancelled));
  json.set("quarantines", static_cast<std::int64_t>(stats.quarantines));
  json.set("reinstated", static_cast<std::int64_t>(stats.reinstated));
  json.set("rollout_clean_ok", rollout_ok);
  json.set("rollout_poisoned_rolled_back", rollback_ok);
  json.set("rollout_traffic_failures",
           static_cast<std::int64_t>(rollout_traffic_failures));
  json.set("hedge_percentile", set_options.hedge_percentile);
  json.set("pass", ok);
  if (!json.write(json_path)) {
    std::printf("FAIL: could not write %s\n", json_path.c_str());
    ok = false;
  }
  if (ok) std::printf("PASS\n");
  return ok ? 0 : 1;
}
