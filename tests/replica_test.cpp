// Replicated serving tests: consistent-hash routing properties, affinity,
// health gating (quarantine -> probation -> reinstatement), bounded
// failover, hedged requests, work stealing, and the zero-downtime rollout
// protocol — plus the chaos gate: with four replicas and one killed
// mid-stream under failpoint injection, every submitted future completes
// and fault-free results are bitwise-identical to a clean pipeline.
//
// Failpoint decisions are pure functions of (seed, hit index); the seeds
// below pin behavior (seed 3 at p=0.5 injects on hit 0, passes on hit 1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/errors.h"
#include "serve/replica_set.h"
#include "support/failpoint.h"

namespace g2p {
namespace {

using namespace std::chrono_literals;

struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm(); }
};

Pipeline& prototype() {
  static Pipeline pipeline = [] {
    Pipeline::Options options;
    options.corpus.scale = 0.01;
    options.train.epochs = 1;
    return Pipeline::train(options);
  }();
  return pipeline;
}

/// Distinct single-loop translation units: each is its own cache key and
/// ring key, and a do-all body keeps the suggestion non-trivial.
std::vector<std::string> replica_sources(int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    out.push_back("void rep_fn" + n +
                  "(float* a, float* b, int n) {\n"
                  "  for (int i = 0; i < n; ++i) {\n"
                  "    a[i] = b[i] * " +
                  std::to_string(i + 2) +
                  ".0f + a[i];\n"
                  "  }\n"
                  "}\n");
  }
  return out;
}

void expect_bitwise(const std::vector<LoopSuggestion>& got,
                    const std::vector<LoopSuggestion>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].parallel, want[i].parallel) << what << " loop " << i;
    EXPECT_EQ(got[i].category, want[i].category) << what << " loop " << i;
    EXPECT_EQ(got[i].suggested_pragma, want[i].suggested_pragma) << what << " loop " << i;
    EXPECT_EQ(
        std::memcmp(&got[i].confidence, &want[i].confidence, sizeof(got[i].confidence)), 0)
        << what << " loop " << i;
  }
}

// ---- consistent ring --------------------------------------------------------

std::vector<std::uint64_t> ring_keys(std::size_t count) {
  std::mt19937_64 rng(0xC0FFEEu);
  std::vector<std::uint64_t> keys(count);
  for (auto& k : keys) k = rng();
  return keys;
}

TEST(ConsistentRing, RemoveMovesOnlyTheRemovedReplicasKeys) {
  ConsistentRing ring(5, 64);
  const auto keys = ring_keys(4096);
  std::vector<std::size_t> before;
  before.reserve(keys.size());
  for (const auto k : keys) before.push_back(ring.owner(k));

  ring.remove(2);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t after = ring.owner(keys[i]);
    EXPECT_NE(after, 2u);
    if (before[i] != 2) {
      EXPECT_EQ(after, before[i]) << "key not owned by the removed replica moved";
    } else {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);  // the removed replica did own something
}

TEST(ConsistentRing, AddMovesKeysOnlyToTheNewReplica) {
  ConsistentRing ring(4, 64);
  const auto keys = ring_keys(4096);
  std::vector<std::size_t> before;
  before.reserve(keys.size());
  for (const auto k : keys) before.push_back(ring.owner(k));

  ring.add(4);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t after = ring.owner(keys[i]);
    if (after != before[i]) {
      EXPECT_EQ(after, 4u) << "a key moved to a pre-existing replica";
      ++moved;
    }
  }
  // The new replica takes roughly 1/5 of the space; anything grossly under
  // means its vnodes landed nowhere (broken point spread).
  EXPECT_GT(moved, keys.size() / 20);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(ConsistentRing, PreferenceStartsAtOwnerAndCoversEveryReplica) {
  ConsistentRing ring(4, 64);
  const auto keys = ring_keys(512);
  std::vector<std::size_t> owned(4, 0);
  for (const auto k : keys) {
    const auto pref = ring.preference(k);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref.front(), ring.owner(k));
    std::vector<bool> seen(4, false);
    for (const auto r : pref) {
      ASSERT_LT(r, 4u);
      EXPECT_FALSE(seen[r]) << "replica repeated in preference order";
      seen[r] = true;
    }
    ++owned[ring.owner(k)];
  }
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_GT(owned[r], 0u) << "replica " << r << " owns no keys at all";
  }
}

// ---- replica equivalence and affinity --------------------------------------

TEST(ReplicaSet, ReplicasServeBitwiseIdenticalSuggestions) {
  const auto sources = replica_sources(4);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  for (const auto& src : sources) {
    const auto expected = prototype().suggest(src);
    for (std::size_t r = 0; r < set.replica_count(); ++r) {
      expect_bitwise(set.replica_pipeline(r).suggest(src), expected,
                     "replica " + std::to_string(r));
    }
  }
}

TEST(ReplicaSet, AffinityKeepsRepeatTrafficAtLeastAsWarmAsOneReplica) {
  const auto sources = replica_sources(6);
  constexpr int kRounds = 5;

  const auto run_stream = [&](std::size_t replicas) {
    ReplicaSet::Options options;
    options.replicas = replicas;
    options.server.max_delay = 1ms;
    ReplicaSet set(prototype(), options);
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& src : sources) {
        EXPECT_NO_THROW((void)set.submit(src).get());
      }
    }
    const auto stats = set.stats();
    std::uint64_t full_hits = 0;
    for (const auto& r : stats.replicas) full_hits += r.server.cache_full_hits;
    // Every request was admitted to its ring owner: no reroutes, no steals.
    EXPECT_EQ(stats.affinity_routed, stats.submitted);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.failed, 0u);
    return full_hits;
  };

  const std::uint64_t single = run_stream(1);
  const std::uint64_t fleet = run_stream(3);
  // Affinity pins each source to one warm cache, so spreading the stream
  // over three replicas loses no hits versus one replica seeing everything.
  EXPECT_GE(fleet, single);
  EXPECT_GT(fleet, 0u);
}

// ---- health gating ----------------------------------------------------------

TEST(ReplicaSet, QuarantineReroutesThenProbationReinstates) {
  const auto sources = replica_sources(24);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  options.quarantine_backoff = 50ms;
  options.probation_probes = 2;
  ReplicaSet set(prototype(), options);

  // A source whose affinity replica we are about to quarantine.
  const std::size_t victim = set.owner_of(sources[0]);
  set.quarantine(victim);
  EXPECT_EQ(set.replica_state(victim), ReplicaState::kQuarantined);

  // Routing skips the quarantined owner while healthy peers exist.
  EXPECT_NO_THROW((void)set.submit(sources[0]).get());
  {
    const auto stats = set.stats();
    EXPECT_GE(stats.quarantines, 1u);
    EXPECT_GE(stats.rerouted, 1u);
    EXPECT_EQ(stats.replicas[victim].routed, 0u);
  }

  // Backoff elapses -> probation; successful probes reinstate.
  std::this_thread::sleep_for(80ms);
  for (const auto& src : sources) {
    if (set.owner_of(src) != victim) continue;
    EXPECT_NO_THROW((void)set.submit(src).get());
    if (set.replica_state(victim) == ReplicaState::kHealthy) break;
  }
  EXPECT_EQ(set.replica_state(victim), ReplicaState::kHealthy);
  const auto stats = set.stats();
  EXPECT_GE(stats.probes, 2u);
  EXPECT_EQ(stats.reinstated, 1u);
}

// ---- failover ---------------------------------------------------------------

TEST(ReplicaSet, RouteFaultSkipsToTheNextReplicaAtAdmission) {
  FailpointGuard guard;
  const auto sources = replica_sources(1);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  // Hit 0 injects, hit 1 passes: the ring owner is unreachable for this
  // dispatch, the next replica in preference order takes the request.
  failpoint::configure("replica.route=error@0.5,3");
  auto future = set.submit(sources[0]);
  expect_bitwise(future.get(), prototype().suggest(sources[0]), "rerouted");
  failpoint::disarm();

  const auto stats = set.stats();
  EXPECT_GE(stats.route_faults, 1u);
  EXPECT_GE(stats.rerouted, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ReplicaSet, ReplicaFaultFailsOverAndStillAnswers) {
  FailpointGuard guard;
  const auto sources = replica_sources(1);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  options.server.max_retries = 0;  // the *set* recovers, not the inner server
  ReplicaSet set(prototype(), options);

  // Hit 0 (the affinity replica's forward) faults the whole leg; the router
  // classifies it replica-attributable and re-dispatches the same request.
  // Hit 1 (the failover replica's forward) passes.
  failpoint::configure("encode.forward=error@0.5,3");
  auto future = set.submit(sources[0]);
  expect_bitwise(future.get(), prototype().suggest(sources[0]), "failover");
  failpoint::disarm();

  const auto stats = set.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  std::uint64_t faults = 0;
  for (const auto& r : stats.replicas) faults += r.faults;
  EXPECT_GE(faults, 1u);
}

// ---- hedging ----------------------------------------------------------------

TEST(ReplicaSet, HedgeDuplicatesAStragglerAndFirstResultWins) {
  FailpointGuard guard;
  const auto sources = replica_sources(1);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  options.hedge_percentile = 0.5;
  options.hedge_floor = 20ms;
  ReplicaSet set(prototype(), options);

  // Hit 0 stalls the primary leg's forward for 400 ms; the hedge fires at
  // the 20 ms floor onto a second replica whose forward (hit 1) is clean.
  failpoint::configure("encode.forward=delay(400)@0.5,3");
  const auto t0 = std::chrono::steady_clock::now();
  auto future = set.submit(sources[0]);
  expect_bitwise(future.get(), prototype().suggest(sources[0]), "hedged");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 350ms) << "hedge did not beat the straggling primary";
  failpoint::disarm();

  const auto stats = set.stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// ---- work stealing ----------------------------------------------------------

TEST(ReplicaSet, StealRoutesAwayFromABackedUpReplica) {
  FailpointGuard guard;
  const auto candidates = replica_sources(48);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  options.server.max_batch_loops = 1;  // one slow forward per batch
  options.steal_depth = 3;
  ReplicaSet set(prototype(), options);

  // Enough distinct sources that all share one affinity replica to back
  // its queue up past steal_depth while its peers sit idle.
  const std::size_t hot = set.owner_of(candidates[0]);
  std::vector<std::string> owned;
  for (const auto& src : candidates) {
    if (set.owner_of(src) == hot) owned.push_back(src);
  }
  ASSERT_GE(owned.size(), 8u);

  failpoint::configure("encode.forward=delay(60)@1");
  std::vector<std::future<std::vector<LoopSuggestion>>> futures;
  futures.reserve(owned.size());
  for (const auto& src : owned) futures.push_back(set.submit(src));
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  failpoint::disarm();

  const auto stats = set.stats();
  EXPECT_GE(stats.stolen, 1u) << "queue imbalance never triggered a steal";
  EXPECT_EQ(stats.failed, 0u);
}

// ---- rollout ----------------------------------------------------------------

/// Shadow traffic for canary diffs: the four serving shapes (do-all,
/// reduction, loop-carried dependence, loop-free), each its own cache key.
std::vector<std::string> shadow_sources(int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0:
        out.push_back("void sscale" + n +
                      "(double* x, int n) {\n  int i;\n  for (i = 0; i < n; i++) x[i] = "
                      "x[i] * " +
                      std::to_string(2 + i) + ".0;\n}\n");
        break;
      case 1:
        out.push_back("double sdot" + n +
                      "(double* x, double* y, int n) {\n  int i;\n  double s = 0;\n  for "
                      "(i = 0; i < n; i++) s += x[i] * y[i];\n  return s;\n}\n");
        break;
      case 2:
        out.push_back("void sshift" + n +
                      "(double* x, int n) {\n  int i;\n  for (i = 1; i < n; i++) x[i] = "
                      "x[i - 1];\n}\n");
        break;
      default:
        out.push_back("int sanswer" + n + "(void) { return " + std::to_string(40 + i) +
                      "; }\n");
        break;
    }
  }
  return out;
}

/// A checkpoint that *loads cleanly* — same architecture, valid integrity
/// trailer — but whose weights were never trained. Exactly the corruption
/// class the byte-level checksum cannot catch and the canary diff exists
/// for: a wrong-but-well-formed generation.
void write_poisoned_checkpoint(const std::string& model_path, const std::string& vocab_path) {
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 0;  // random init, never fit
  Pipeline untrained = Pipeline::train(options);
  ASSERT_TRUE(untrained.save(model_path, vocab_path));
}

TEST(ReplicaSet, CleanRolloutPromotesEveryReplicaWithZeroFailedFutures) {
  const auto sources = shadow_sources(8);
  const std::string model_path = testing::TempDir() + "replica_clean.bin";
  const std::string vocab_path = testing::TempDir() + "replica_clean_vocab.txt";
  ASSERT_TRUE(prototype().save(model_path, vocab_path));

  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  // Live traffic throughout the rollout: every future must succeed.
  std::atomic<bool> done{false};
  std::atomic<int> traffic_failures{0};
  std::thread traffic([&] {
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      try {
        (void)set.submit(sources[i++ % sources.size()]).get();
      } catch (...) {
        traffic_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const RolloutReport report = set.rollout(model_path, sources);
  done.store(true, std::memory_order_release);
  traffic.join();

  EXPECT_TRUE(report.ok) << report.reason;
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.promoted, 3u);
  EXPECT_EQ(report.diffed, sources.size());
  EXPECT_EQ(report.mismatched, 0u);
  EXPECT_EQ(traffic_failures.load(), 0);
  const auto stats = set.stats();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.rollouts_promoted, 1u);
  EXPECT_EQ(stats.failed, 0u);
  for (std::size_t r = 0; r < set.replica_count(); ++r) {
    EXPECT_EQ(set.replica_state(r), ReplicaState::kHealthy);
  }

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

TEST(ReplicaSet, PoisonedCanaryRollsBackWithZeroFailedFutures) {
  const auto sources = shadow_sources(8);
  const std::string model_path = testing::TempDir() + "replica_poison.bin";
  const std::string vocab_path = testing::TempDir() + "replica_poison_vocab.txt";
  write_poisoned_checkpoint(model_path, vocab_path);

  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  options.canary_max_mismatch = 0.05;
  ReplicaSet set(prototype(), options);
  const auto expected = prototype().suggest(sources[0]);

  std::atomic<bool> done{false};
  std::atomic<int> traffic_failures{0};
  std::thread traffic([&] {
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      try {
        (void)set.submit(sources[i++ % sources.size()]).get();
      } catch (...) {
        traffic_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const RolloutReport report = set.rollout(model_path, sources);
  done.store(true, std::memory_order_release);
  traffic.join();

  // The poisoned generation loads cleanly (valid trailer) but disagrees
  // with the serving generation on shadow traffic: the canary rolls back
  // and no client ever saw the bad weights.
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.rolled_back) << report.reason;
  EXPECT_EQ(report.promoted, 0u);
  EXPECT_GE(report.mismatched, 1u);
  EXPECT_EQ(traffic_failures.load(), 0);
  const auto stats = set.stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.rollouts_rolled_back, 1u);
  EXPECT_EQ(stats.failed, 0u);

  // The old generation serves on, bit for bit.
  expect_bitwise(set.submit(sources[0]).get(), expected, "post-rollback");

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

TEST(ReplicaSet, RolloutLoadFaultRollsBackCleanly) {
  FailpointGuard guard;
  const auto sources = replica_sources(2);
  const std::string model_path = testing::TempDir() + "replica_loadfault.bin";
  const std::string vocab_path = testing::TempDir() + "replica_loadfault_vocab.txt";
  ASSERT_TRUE(prototype().save(model_path, vocab_path));

  ReplicaSet::Options options;
  options.replicas = 2;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  failpoint::configure("replica.rollout=error@1");
  const RolloutReport report = set.rollout(model_path, sources);
  failpoint::disarm();

  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(set.stats().generation, 1u);
  EXPECT_NO_THROW((void)set.submit(sources[0]).get());  // still serving

  std::remove(model_path.c_str());
  std::remove(vocab_path.c_str());
}

// ---- chaos gate: kill one of four mid-stream --------------------------------

TEST(ReplicaSet, KillAndQuarantineMidStreamEveryFutureCompletes) {
  FailpointGuard guard;
  const auto sources = replica_sources(12);
  std::vector<std::vector<LoopSuggestion>> expected;
  expected.reserve(sources.size());
  for (const auto& src : sources) expected.push_back(prototype().suggest(src));

  ReplicaSet::Options options;
  options.replicas = 4;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  // Low-rate injected faults at the route and forward seams, plus one
  // replica killed and one quarantined while the stream is in flight.
  failpoint::configure("replica.route=error@0.05,11;encode.forward=error@0.05,13");

  constexpr int kSubmitters = 3;
  constexpr int kRounds = 10;
  std::atomic<int> succeeded{0};
  std::atomic<int> faulted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < sources.size(); ++i) {
          try {
            auto got = set.submit(sources[i]).get();
            expect_bitwise(got, expected[i],
                           "thread " + std::to_string(t) + " source " + std::to_string(i));
            succeeded.fetch_add(1, std::memory_order_relaxed);
          } catch (const failpoint::FailpointError&) {
            faulted.fetch_add(1, std::memory_order_relaxed);
          } catch (const ServeError&) {
            faulted.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception& e) {
            ADD_FAILURE() << "untyped error escaped to a client: " << e.what();
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(30ms);
  set.kill(1);
  set.quarantine(2);
  for (auto& t : submitters) t.join();
  failpoint::disarm();

  const int total = kSubmitters * kRounds * static_cast<int>(sources.size());
  EXPECT_EQ(succeeded.load() + faulted.load(), total)
      << "a submitted future went unaccounted for";
  EXPECT_GT(succeeded.load(), 0);
  EXPECT_EQ(set.replica_state(1), ReplicaState::kDead);

  const auto stats = set.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
}

// ---- resource governor: rejection is request-scoped, never replica-scoped --

TEST(ReplicaSet, ResourceExhaustedNeverTriggersFailoverOrHealthPenalty) {
  const auto sources = replica_sources(3);
  ReplicaSet::Options options;
  options.replicas = 3;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  std::vector<std::vector<LoopSuggestion>> expected;
  for (const auto& src : sources) expected.push_back(prototype().suggest(src));

  // A poison source that blows the default parse-depth budget mid-parse.
  std::string poison = "int f(void) { return ";
  for (int i = 0; i < 400; ++i) poison += '(';
  poison += '1';
  for (int i = 0; i < 400; ++i) poison += ')';
  poison += "; }";

  // Interleave poison with clean traffic across several rounds so every
  // replica serves both kinds.
  constexpr int kRounds = 4;
  int poison_rejected = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto bad = set.submit(poison);
    std::vector<std::future<std::vector<LoopSuggestion>>> good;
    good.reserve(sources.size());
    for (const auto& src : sources) good.push_back(set.submit(src));
    try {
      bad.get();
      FAIL() << "poison request was accepted";
    } catch (const ResourceExhausted& e) {
      EXPECT_EQ(e.limit(), ResourceLimit::kParseDepth);
      ++poison_rejected;
    }
    for (std::size_t i = 0; i < good.size(); ++i) {
      expect_bitwise(good[i].get(), expected[i],
                     "round " + std::to_string(round) + " clean source " + std::to_string(i));
    }
  }
  EXPECT_EQ(poison_rejected, kRounds);

  // Request-scoped: the rejection bought no failover legs, no route faults,
  // and left every replica healthy with zero attributed faults.
  const auto stats = set.stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.route_faults, 0u);
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.failed, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRounds) * sources.size());
  ASSERT_EQ(stats.replicas.size(), 3u);
  for (std::size_t r = 0; r < stats.replicas.size(); ++r) {
    EXPECT_EQ(stats.replicas[r].state, ReplicaState::kHealthy) << "replica " << r;
    EXPECT_EQ(stats.replicas[r].faults, 0u) << "replica " << r;
    EXPECT_EQ(stats.replicas[r].quarantines, 0u) << "replica " << r;
  }
}

TEST(ReplicaSet, OversizeSourceRejectedAtSetAdmission) {
  ReplicaSet::Options options;
  options.replicas = 2;
  options.server.max_delay = 1ms;
  ReplicaSet set(prototype(), options);

  const std::string oversize(3u << 20, 'y');  // past the default 2 MiB cap
  try {
    auto f = set.submit(oversize);
    FAIL() << "expected synchronous ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.limit(), ResourceLimit::kSourceBytes);
  }

  // No flight was created, no replica dispatched to, and the set still
  // serves clean work.
  const auto stats = set.stats();
  EXPECT_EQ(stats.failovers, 0u);
  for (const auto& r : stats.replicas) {
    EXPECT_EQ(r.state, ReplicaState::kHealthy);
    EXPECT_EQ(r.in_flight, 0u);
  }
  const auto src = replica_sources(1)[0];
  expect_bitwise(set.submit(src).get(), prototype().suggest(src), "post-rejection");
}

}  // namespace
}  // namespace g2p
