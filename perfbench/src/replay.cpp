#include "replay.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dependence.h"
#include "analysis/verifier.h"
#include "core/aug_ast.h"
#include "frontend/loop_extractor.h"
#include "frontend/parser.h"
#include "graph/hetgraph_index.h"
#include "host.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// In-memory span log: name, start, end, causing span, and the batch (the
/// request group) every span of one replayed batch shares.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  template <typename F>
  decltype(auto) span(const char* name, std::size_t parent, std::size_t batch, F&& work) {
    const auto start = Clock::now();
    struct Close {
      Tracer* self;
      const char* name;
      std::size_t parent, batch;
      Clock::time_point start;
      ~Close() { self->record(name, parent, batch, start, Clock::now()); }
    } close{this, name, parent, batch, start};
    return work();
  }

  /// Index the next recorded span will get (children name it as parent).
  std::size_t next_id() const { return spans_.size(); }

  /// Summed duration of every span with this name, in nanoseconds.
  double total_ns(std::string_view name) const {
    const auto it = totals_.find(std::string(name));
    return it == totals_.end() ? 0.0 : it->second;
  }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "span\tparent\tbatch\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%lld\t%zu\t%s\t%lld\t%lld\n", i,
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent), s.batch,
                   s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    std::size_t batch;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void record(const char* name, std::size_t parent, std::size_t batch, Clock::time_point start,
              Clock::time_point end) {
    const auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
    };
    spans_.push_back(Span{name, parent, batch, ns(start), ns(end)});
    totals_[name] += static_cast<double>(ns(end) - ns(start));
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::unordered_map<std::string, double> totals_;
};

/// The frontend artifact of one cold source, rebuilt layer by layer.
struct Rebuilt {
  g2p::ParseResult parsed;
  std::vector<g2p::ExtractedLoop> loops;
  std::vector<g2p::LoopGraph> graphs;
};

// Layer spans that are replayed children of one pipeline.batch span.
constexpr std::array<const char*, 8> kLayerSpans = {
    "frontend.parse", "frontend.extract", "aug_ast.build", "graph.union",
    "model.encode",   "model.heads",      "analysis.analyze", "analysis.verify"};

bool same_suggestion(const g2p::LoopSuggestion& a, const g2p::LoopSuggestion& b) {
  return a.line == b.line && a.parallel == b.parallel && a.category == b.category &&
         a.suggested_pragma == b.suggested_pragma && a.verdict == b.verdict;
}

}  // namespace

ReplayResult replay(g2p::Pipeline& pipeline, const Workload& workload,
                    const std::vector<Expected>& expected, const ReplayOptions& options) {
  ReplayResult result;
  const std::size_t batch_size = std::max<std::size_t>(options.batch_size, 1);
  pipeline.set_thread_pool(std::make_shared<g2p::ThreadPool>(1));
  pipeline.clear_cache();

  std::unordered_set<g2p::Hash128, g2p::Hash128Hasher> published;
  const auto sources_of = [&](const std::vector<std::size_t>& ids, std::size_t begin,
                              std::size_t end) {
    std::vector<std::string_view> views;
    for (std::size_t i = begin; i < end; ++i) views.push_back(workload.sources[ids[i]].text);
    return views;
  };
  // Warm phase, untraced: the same cache state the measured phase started from.
  for (std::size_t b = 0; b < workload.warm.size(); b += batch_size) {
    const auto views =
        sources_of(workload.warm, b, std::min(workload.warm.size(), b + batch_size));
    pipeline.suggest_batch_results(views);
    for (const auto v : views) published.insert(g2p::hash_source(v));
  }

  std::vector<std::size_t> order = workload.replay_order();
  if (options.max_requests > 0 && order.size() > options.max_requests) {
    order.resize(options.max_requests);
  }

  const g2p::Graph2ParModel& model = pipeline.model();
  const g2p::AugAstBuilder builder(pipeline.vocab(), g2p::AugAstOptions{});
  const bool verify = pipeline.verify_active();
  std::array<std::size_t, 5> verdicts{};  // indexed by g2p::Verdict
  std::size_t predicted_hits = 0, built_bytes = 0, union_loops = 0;
  double nodes = 0.0, edges = 0.0;
  std::size_t batches = 0;

  const g2p::SuggestCache::Stats before = pipeline.cache_stats();
  const HostSample host_before = HostSample::now();
  const auto start = Clock::now();
  Tracer tracer(start);

  for (std::size_t b = 0; b < order.size(); b += batch_size, ++batches) {
    const std::size_t end = std::min(order.size(), b + batch_size);
    const auto views = sources_of(order, b, end);
    const std::size_t n = views.size();

    // Which slots the cache will answer, and which cold slot builds for
    // duplicates of itself: stage 0 of suggest_batch_results, predicted.
    std::vector<g2p::Hash128> keys(n);
    std::vector<char> hit(n, 0);
    std::vector<std::size_t> owner(n);
    std::unordered_map<g2p::Hash128, std::size_t, g2p::Hash128Hasher> first_of;
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = g2p::hash_source(views[i]);
      hit[i] = published.count(keys[i]) ? 1 : 0;
      predicted_hits += static_cast<std::size_t>(hit[i]);
      owner[i] = hit[i] ? i : first_of.emplace(keys[i], i).first->second;
    }

    const std::size_t batch_span = tracer.next_id();
    auto served = tracer.span("pipeline.batch", Tracer::kNoParent, batches,
                              [&] { return pipeline.suggest_batch_results(views); });
    for (std::size_t i = 0; i < n; ++i) {
      if (!served[i].ok() || !matches(expected[order[b + i]], served[i].suggestions)) {
        result.errors.push_back("replayed batch served a result that differs from the reference");
      }
      result.loops += served[i].suggestions.size();
    }

    // Replay each layer of the cold path for this batch, as serving ran it.
    const g2p::NoGradGuard no_grad;
    std::vector<std::shared_ptr<Rebuilt>> rebuilt(n);
    std::vector<const g2p::HetGraph*> graph_ptrs;
    for (std::size_t i = 0; i < n; ++i) {
      if (hit[i]) continue;
      if (owner[i] != i) {
        rebuilt[i] = rebuilt[owner[i]];
      } else {
        auto r = std::make_shared<Rebuilt>();
        r->parsed = tracer.span("frontend.parse", batch_span, batches,
                                [&] { return g2p::parse_translation_unit(views[i]); });
        r->loops = tracer.span("frontend.extract", batch_span, batches,
                               [&] { return g2p::extract_loops(*r->parsed.tu); });
        tracer.span("aug_ast.build", batch_span, batches, [&] {
          r->graphs.reserve(r->loops.size());
          for (const auto& loop : r->loops) {
            r->graphs.push_back(builder.build(*loop.loop, r->parsed.tu));
          }
        });
        for (const auto& g : r->graphs) {
          nodes += g.graph.num_nodes();
          edges += g.graph.num_edges();
        }
        built_bytes += views[i].size();
        rebuilt[i] = std::move(r);
      }
      for (const auto& g : rebuilt[i]->graphs) graph_ptrs.push_back(&g.graph);
    }
    if (!graph_ptrs.empty()) {
      union_loops += graph_ptrs.size();
      const auto batched = tracer.span("graph.union", batch_span, batches,
                                       [&] { return g2p::batch_graphs(graph_ptrs); });
      const g2p::Tensor pooled = tracer.span("model.encode", batch_span, batches,
                                             [&] { return model.encode(batched); });
      g2p::Tensor probs;
      std::array<std::vector<int>, 4> clauses;
      tracer.span("model.heads", batch_span, batches, [&] {
        probs = g2p::softmax_rows(model.task_logits(pooled, g2p::PredictionTask::kParallel));
        for (int c = 0; c < 4; ++c) {
          clauses[static_cast<std::size_t>(c)] = g2p::argmax_rows(
              model.task_logits(pooled, static_cast<g2p::PredictionTask>(c + 1)));
        }
      });
      // Render and verify, mirroring the pipeline's per-loop suggestion.
      std::size_t row = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (hit[i]) continue;
        const Rebuilt& r = *rebuilt[i];
        for (std::size_t l = 0; l < r.loops.size(); ++l, ++row) {
          const g2p::ExtractedLoop& loop = r.loops[l];
          g2p::LoopSuggestion s;
          s.line = loop.loop->line;
          s.confidence = probs.at({static_cast<int>(row), 1});
          s.parallel = s.confidence >= 0.5;
          if (s.parallel) {
            if (clauses[3][row] == 1) {
              s.category = g2p::PragmaCategory::kTarget;
            } else if (clauses[2][row] == 1) {
              s.category = g2p::PragmaCategory::kSimd;
            } else if (clauses[1][row] == 1) {
              s.category = g2p::PragmaCategory::kReduction;
            } else {
              s.category = g2p::PragmaCategory::kPrivate;
            }
            const g2p::LoopFacts facts = tracer.span("analysis.analyze", batch_span, batches, [&] {
              return g2p::analyze_loop(*loop.loop, r.parsed.tu);
            });
            std::vector<g2p::OmpPragma::Reduction> reductions;
            if (s.category == g2p::PragmaCategory::kReduction) {
              for (const auto& red : g2p::find_reductions(facts)) {
                reductions.push_back(g2p::OmpPragma::Reduction{red.op, {red.var}});
              }
            }
            std::vector<std::string> privates;
            for (const auto& var : g2p::find_private_scalars(facts)) {
              if (!facts.written_scalars.at(var).declared_in_body) privates.push_back(var);
            }
            s.suggested_pragma = g2p::render_pragma(s.category, privates, reductions);
            if (verify) {
              auto verdict = tracer.span("analysis.verify", batch_span, batches, [&] {
                return g2p::verify_clauses(facts, s.category, privates, reductions);
              });
              g2p::apply_verifier_result(std::move(verdict), s);
            }
          } else if (verify) {
            s.verdict = g2p::Verdict::kVerified;
          }
          ++verdicts[static_cast<std::size_t>(s.verdict)];
          if (l >= served[i].suggestions.size() || !same_suggestion(s, served[i].suggestions[l])) {
            result.errors.push_back("layer replay diverged from the served suggestion at line " +
                                    std::to_string(s.line));
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) published.insert(keys[i]);
  }

  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.cpu_s = host_noise(host_before, HostSample::now()).cpu_s;
  const g2p::SuggestCache::Stats after = pipeline.cache_stats();
  result.requests = order.size();
  result.planned_hits = predicted_hits;
  const double requests = static_cast<double>(order.size());
  const double full_hits = static_cast<double>(after.full_hits - before.full_hits);
  if (after.full_hits - before.full_hits != predicted_hits) {
    result.errors.push_back("cache answered " + std::to_string(after.full_hits - before.full_hits) +
                            " requests, the replay predicted " + std::to_string(predicted_hits));
  }

  const double nb = static_cast<double>(std::max<std::size_t>(batches, 1));
  const auto per_batch_ms = [&](const char* name) { return tracer.total_ns(name) / 1e6 / nb; };
  auto& m = result.metrics;
  m["frontend.parse_ms"] = per_batch_ms("frontend.parse");
  m["frontend.extract_ms"] = per_batch_ms("frontend.extract");
  m["frontend.us_per_kb"] =
      built_bytes == 0 ? 0.0
                       : (tracer.total_ns("frontend.parse") + tracer.total_ns("frontend.extract")) /
                             1e3 / (static_cast<double>(built_bytes) / 1024.0);
  const double built_loops = static_cast<double>(union_loops);
  m["aug_ast.build_ms"] = per_batch_ms("aug_ast.build");
  m["aug_ast.nodes_per_loop"] = built_loops == 0 ? 0.0 : nodes / built_loops;
  m["aug_ast.edges_per_loop"] = built_loops == 0 ? 0.0 : edges / built_loops;
  m["graph.union_ms"] = per_batch_ms("graph.union");
  m["graph.loops_per_batch"] = built_loops / nb;
  m["model.encode_ms"] = per_batch_ms("model.encode");
  m["model.encode_us_per_loop"] =
      built_loops == 0 ? 0.0 : tracer.total_ns("model.encode") / 1e3 / built_loops;
  m["model.heads_ms"] = per_batch_ms("model.heads");
  m["analysis.analyze_ms"] = per_batch_ms("analysis.analyze");
  m["analysis.verify_ms"] = per_batch_ms("analysis.verify");
  m["analysis.verified"] = static_cast<double>(verdicts[static_cast<int>(g2p::Verdict::kVerified)]);
  m["analysis.repaired"] = static_cast<double>(verdicts[static_cast<int>(g2p::Verdict::kRepaired)]);
  m["analysis.vetoed"] = static_cast<double>(verdicts[static_cast<int>(g2p::Verdict::kVetoed)]);
  m["analysis.unknown"] = static_cast<double>(verdicts[static_cast<int>(g2p::Verdict::kUnknown)]);
  const double batch_ms = per_batch_ms("pipeline.batch");
  double layers_ms = 0.0;
  for (const char* layer : kLayerSpans) layers_ms += per_batch_ms(layer);
  m["pipeline.batch_ms"] = batch_ms;
  m["pipeline.self_ms"] = batch_ms - layers_ms;
  m["pipeline.full_hit_ratio"] = requests == 0 ? 0.0 : full_hits / requests;
  m["pipeline.miss_ratio"] =
      requests == 0 ? 0.0 : static_cast<double>(after.misses - before.misses) / requests;
  m["pipeline.evictions"] = static_cast<double>(after.evictions - before.evictions);
  if (batch_ms - layers_ms < -kReconcileTolerance * batch_ms) {
    result.errors.push_back("replayed layer spans exceed pipeline.batch_ms by more than " +
                            std::to_string(kReconcileTolerance * 100.0) + "%");
  }
  if (!options.spans_path.empty() && !tracer.write(options.spans_path)) {
    result.errors.push_back("cannot write spans to " + options.spans_path);
  }
  return result;
}

}  // namespace perfbench
