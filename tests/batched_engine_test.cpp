// Tests for the batched graph engine: CSR indexing, disjoint-union batching
// with empty graphs, batched-vs-sequential forward parity, the worker pool,
// and the parallel suggest pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graph2par.h"
#include "core/pipeline.h"
#include "dataset/generator.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace g2p {
namespace {

/// Random connected graph with a mix of node and edge types.
HetGraph make_graph(Rng& rng, int n) {
  HetGraph g;
  for (int i = 0; i < n; ++i) {
    g.add_node(static_cast<HetNodeType>(rng.uniform_int(0, kNumHetNodeTypes - 1)),
               static_cast<int>(rng.uniform_int(0, 40)),
               static_cast<int>(rng.uniform_int(0, 7)));
  }
  for (int i = 1; i < n; ++i) {
    g.add_edge_pair(static_cast<int>(rng.uniform_int(0, i - 1)), i, HetEdgeType::kAstChild,
                    HetEdgeType::kAstParent);
  }
  for (int i = 0; i + 1 < n; i += 2) {
    g.add_edge_pair(i, i + 1, HetEdgeType::kCfgNext, HetEdgeType::kCfgPrev);
  }
  if (n >= 3) g.add_edge_pair(0, n - 1, HetEdgeType::kLexNext, HetEdgeType::kLexPrev);
  return g;
}

// ---- HetGraphIndex ----------------------------------------------------------

TEST(HetGraphIndex, CsrStructureOfHandBuiltGraph) {
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 1, 0);     // 0
  g.add_node(HetNodeType::kVarRef, 2, 0);   // 1
  g.add_node(HetNodeType::kLiteral, 3, 1);  // 2
  g.add_edge(0, 1, HetEdgeType::kAstChild);
  g.add_edge(0, 2, HetEdgeType::kAstChild);
  g.add_edge(2, 1, HetEdgeType::kAstChild);  // second in-edge of node 1
  g.add_edge(1, 2, HetEdgeType::kLexNext);

  const HetGraphIndex index(g);
  EXPECT_EQ(index.num_nodes, 3);
  EXPECT_EQ(index.num_edges, 4);

  const auto& ast = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kAstChild)];
  // Incoming kAstChild edges: node 0 none, node 1 two (from 0 then 2, original
  // order preserved), node 2 one (from 0).
  EXPECT_EQ(ast.row_offsets, (std::vector<int>{0, 0, 2, 3}));
  EXPECT_EQ(ast.src, (std::vector<int>{0, 2, 0}));
  EXPECT_EQ(ast.dst, (std::vector<int>{1, 1, 2}));
  EXPECT_EQ(ast.concat_offset, 0);

  const auto& lex = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kLexNext)];
  EXPECT_EQ(lex.src, (std::vector<int>{1}));
  EXPECT_EQ(lex.dst, (std::vector<int>{2}));
  EXPECT_EQ(lex.concat_offset, 3);  // after the three kAstChild edges

  // Type-major concat order: the three AST edges, then the lexical one.
  EXPECT_EQ(index.dst_concat, (std::vector<int>{1, 1, 2, 2}));
  const int loop_t = static_cast<int>(HetNodeType::kLoop);
  const int var_t = static_cast<int>(HetNodeType::kVarRef);
  const int ast_e = static_cast<int>(HetEdgeType::kAstChild);
  EXPECT_EQ(index.meta_concat[0],
            (loop_t * kNumHetEdgeTypes + ast_e) * kNumHetNodeTypes + var_t);

  // Node-type grouping used by the per-type projections.
  EXPECT_EQ(index.rows_of_type[static_cast<std::size_t>(HetNodeType::kLoop)],
            (std::vector<int>{0}));
  EXPECT_EQ(index.rows_of_type[static_cast<std::size_t>(HetNodeType::kVarRef)],
            (std::vector<int>{1}));
}

TEST(HetGraphIndex, TypeMajorSlotsOfUnsortedGraph) {
  // Nodes deliberately out of type order, with repeated types.
  HetGraph g;
  g.add_node(HetNodeType::kStmtOther, 1, 0);  // 0
  g.add_node(HetNodeType::kLoop, 2, 0);       // 1
  g.add_node(HetNodeType::kVarRef, 3, 0);     // 2
  g.add_node(HetNodeType::kLoop, 4, 0);       // 3
  g.add_node(HetNodeType::kLiteral, 5, 0);    // 4
  g.add_node(HetNodeType::kVarRef, 6, 0);     // 5
  g.add_node(HetNodeType::kBinaryOp, 7, 0);   // 6
  g.add_edge(0, 1, HetEdgeType::kAstChild);
  g.add_edge(6, 2, HetEdgeType::kAstChild);  // node 2 gets three kAstChild
  g.add_edge(4, 2, HetEdgeType::kAstChild);  // in-edges whose source slots
  g.add_edge(3, 2, HetEdgeType::kAstChild);  // are not in ascending order
  g.add_edge(1, 6, HetEdgeType::kAstChild);
  g.add_edge(5, 0, HetEdgeType::kLexNext);
  g.add_edge(2, 0, HetEdgeType::kLexNext);
  const HetGraphIndex index(g);

  // Stable counting sort by type: kLoop {1, 3}, kBinaryOp {6}, kVarRef
  // {2, 5}, kLiteral {4}, kStmtOther {0}.
  EXPECT_EQ(index.node_of_slot, (std::vector<int>{1, 3, 6, 2, 5, 4, 0}));
  std::vector<int> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int s = 0; s < index.num_nodes; ++s) {
    const int v = index.node_of_slot[static_cast<std::size_t>(s)];
    ASSERT_GE(v, 0);
    ASSERT_LT(v, g.num_nodes());
    ++seen[static_cast<std::size_t>(v)];
    EXPECT_EQ(index.slot_of_node[static_cast<std::size_t>(v)], s);
  }
  for (const int count : seen) EXPECT_EQ(count, 1);  // a permutation

  // Each type owns one slot range, in enum order, stable within the type.
  ASSERT_EQ(index.type_offset.size(), static_cast<std::size_t>(kNumHetNodeTypes) + 1);
  EXPECT_EQ(index.type_offset.front(), 0);
  EXPECT_EQ(index.type_offset.back(), g.num_nodes());
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    EXPECT_LE(index.type_offset[ts], index.type_offset[ts + 1]);
    std::vector<int> range;
    int prev_node = -1;
    for (int s = index.type_offset[ts]; s < index.type_offset[ts + 1]; ++s) {
      range.push_back(s);
      const int v = index.node_of_slot[static_cast<std::size_t>(s)];
      EXPECT_EQ(static_cast<int>(g.nodes[static_cast<std::size_t>(v)].type), t);
      EXPECT_GT(v, prev_node);  // insertion order kept within the type
      prev_node = v;
    }
    EXPECT_EQ(index.rows_of_type[ts], range);
  }

  // CSR in slot space; node 2 (slot 3) lists its kAstChild sources in
  // insertion order: nodes 6, 4, 3 = slots 2, 5, 1.
  const auto& ast = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kAstChild)];
  const int slot2 = index.slot_of_node[2];
  EXPECT_EQ(slot2, 3);
  ASSERT_EQ(ast.in_degree(slot2), 3);
  EXPECT_EQ(ast.src[static_cast<std::size_t>(ast.in_begin(slot2))], 2);
  EXPECT_EQ(ast.src[static_cast<std::size_t>(ast.in_begin(slot2)) + 1], 5);
  EXPECT_EQ(ast.src[static_cast<std::size_t>(ast.in_begin(slot2)) + 2], 1);
  EXPECT_EQ(ast.src, (std::vector<int>{6, 0, 2, 5, 1}));
  EXPECT_EQ(ast.dst, (std::vector<int>{0, 2, 3, 3, 3}));
  const auto& lex = index.per_edge_type[static_cast<std::size_t>(HetEdgeType::kLexNext)];
  EXPECT_EQ(lex.src, (std::vector<int>{4, 3}));  // nodes 5 then 2, insertion order
  EXPECT_EQ(lex.dst, (std::vector<int>{6, 6}));
  EXPECT_EQ(index.dst_concat, (std::vector<int>{0, 2, 3, 3, 3, 6, 6}));

  // Meta-relation ids are the ones of the original node types.
  const auto meta = [](HetNodeType s, HetEdgeType e, HetNodeType t) {
    return (static_cast<int>(s) * kNumHetEdgeTypes + static_cast<int>(e)) * kNumHetNodeTypes +
           static_cast<int>(t);
  };
  using N = HetNodeType;
  const HetEdgeType a = HetEdgeType::kAstChild, l = HetEdgeType::kLexNext;
  EXPECT_EQ(index.meta_concat,
            (std::vector<int>{meta(N::kStmtOther, a, N::kLoop), meta(N::kLoop, a, N::kBinaryOp),
                              meta(N::kBinaryOp, a, N::kVarRef), meta(N::kLiteral, a, N::kVarRef),
                              meta(N::kLoop, a, N::kVarRef), meta(N::kVarRef, l, N::kStmtOther),
                              meta(N::kVarRef, l, N::kStmtOther)}));
}

TEST(HetGraphIndex, ThrowsOnOutOfRangeEdge) {
  HetGraph g;
  g.add_node(HetNodeType::kLoop, 1, 0);
  g.add_edge(0, 3, HetEdgeType::kAstChild);
  EXPECT_THROW(HetGraphIndex{g}, std::invalid_argument);
}

TEST(HetGraphIndex, EmptyGraph) {
  const HetGraphIndex index{HetGraph{}};
  EXPECT_EQ(index.num_nodes, 0);
  EXPECT_EQ(index.num_edges, 0);
  EXPECT_TRUE(index.dst_concat.empty());
}

// ---- batch_graphs with empty graphs ----------------------------------------

TEST(BatchGraphs, EmptyGraphsKeepTheirSegments) {
  Rng rng(11);
  HetGraph empty;
  HetGraph a = make_graph(rng, 4);
  HetGraph b = make_graph(rng, 3);

  const auto batch = batch_graphs({&empty, &a, &empty, &b, &empty});
  EXPECT_EQ(batch.num_graphs, 5);
  EXPECT_EQ(batch.merged.num_nodes(), 7);
  EXPECT_EQ(batch.merged.num_edges(), a.num_edges() + b.num_edges());
  EXPECT_TRUE(batch.merged.valid());
  // Nodes of `a` map to segment 1, nodes of `b` to segment 3.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch.segment_of_node[static_cast<std::size_t>(i)], 1);
  for (int i = 4; i < 7; ++i) EXPECT_EQ(batch.segment_of_node[static_cast<std::size_t>(i)], 3);
  // Edge endpoints of `b` must be offset by the nodes of `a` only (the empty
  // graphs contribute no offset).
  for (int e = a.num_edges(); e < batch.merged.num_edges(); ++e) {
    EXPECT_GE(batch.merged.edges[static_cast<std::size_t>(e)].src, 4);
    EXPECT_GE(batch.merged.edges[static_cast<std::size_t>(e)].dst, 4);
  }
  EXPECT_EQ(batch.index.num_nodes, 7);
  EXPECT_EQ(batch.index.num_edges, batch.merged.num_edges());
}

TEST(BatchGraphs, AllEmptyAndNone) {
  HetGraph empty;
  const auto batch = batch_graphs({&empty, &empty});
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.merged.num_nodes(), 0);
  const auto none = batch_graphs({});
  EXPECT_EQ(none.num_graphs, 0);
}

TEST(BatchGraphs, RejectsNullAndCorruptGraphs) {
  EXPECT_THROW(batch_graphs({nullptr}), std::invalid_argument);
  HetGraph corrupt;
  corrupt.add_node(HetNodeType::kLoop, 1, 0);
  corrupt.add_edge(0, 9, HetEdgeType::kAstChild);
  EXPECT_THROW(batch_graphs({&corrupt}), std::invalid_argument);
}

// ---- batched-vs-sequential parity ------------------------------------------

TEST(BatchedEngine, EncoderForwardMatchesPerGraphWithin1e6) {
  Rng rng(42);
  const int dim = 16, heads = 4, layers = 2;
  HgtEncoder encoder(dim, heads, layers, rng);

  std::vector<HetGraph> graphs;
  graphs.push_back(make_graph(rng, 5));
  graphs.push_back(make_graph(rng, 9));
  graphs.push_back(make_graph(rng, 7));

  std::vector<Tensor> features;
  std::vector<Tensor> singles;
  for (const auto& g : graphs) {
    features.push_back(Tensor::randn({g.num_nodes(), dim}, rng, 0.5f));
    singles.push_back(encoder.forward(features.back(), g));
  }

  const auto batch = batch_graphs({&graphs[0], &graphs[1], &graphs[2]});
  const Tensor batched = encoder.forward(concat_rows(features), batch.index);

  int row = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (int i = 0; i < graphs[g].num_nodes(); ++i, ++row) {
      for (int d = 0; d < dim; ++d) {
        EXPECT_NEAR(batched.at({row, d}), singles[g].at({i, d}), 1e-6f)
            << "graph " << g << " node " << i << " dim " << d;
      }
    }
  }
}

/// Graph whose node types cycle through all 13 types from a per-graph
/// phase, so a batch of them interleaves every type across graphs — the
/// case where slot order differs most from node order. Every graph has
/// fewer kAstChild / kAstParent / kLexPrev edges than nodes and exactly as
/// many kLexNext edges as nodes, so each edge type takes the same sparse or
/// dense route in the batch as in every graph alone.
HetGraph make_mixed_type_graph(Rng& rng, int n, int phase) {
  HetGraph g;
  for (int i = 0; i < n; ++i) {
    g.add_node(static_cast<HetNodeType>((i * 5 + phase) % kNumHetNodeTypes),
               static_cast<int>(rng.uniform_int(0, 40)), static_cast<int>(rng.uniform_int(0, 7)));
  }
  for (int i = 1; i < n; ++i) {
    g.add_edge_pair(static_cast<int>(rng.uniform_int(0, i - 1)), i, HetEdgeType::kAstChild,
                    HetEdgeType::kAstParent);
    g.add_edge_pair(i - 1, i, HetEdgeType::kLexNext, HetEdgeType::kLexPrev);
  }
  g.add_edge(n - 1, 0, HetEdgeType::kLexNext);
  return g;
}

TEST(BatchedEngine, PooledParityOnBatchInterleavingAllNodeTypes) {
  Rng rng(2024);
  Graph2ParConfig config;
  config.vocab_size = 41;
  Graph2ParModel model(config, rng);
  std::vector<HetGraph> graphs;
  for (int g = 0; g < 6; ++g) graphs.push_back(make_mixed_type_graph(rng, 14 + 3 * g, g));
  std::vector<const HetGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const auto batch = batch_graphs(ptrs);
  // The batch must really be reordered: slots differ from node ids.
  int moved = 0;
  for (int s = 0; s < batch.index.num_nodes; ++s) {
    moved += batch.index.node_of_slot[static_cast<std::size_t>(s)] != s ? 1 : 0;
  }
  EXPECT_GT(moved, batch.index.num_nodes / 2);

  const auto expect_parity = [&](const char* what) {
    const Tensor pooled = model.encode(batch);
    ASSERT_EQ(pooled.dim(0), static_cast<int>(graphs.size()));
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const Tensor single = model.encode(graphs[g]);
      for (int d = 0; d < config.dim; ++d) {
        EXPECT_NEAR(pooled.at({static_cast<int>(g), d}), single.at({0, d}), 2e-4f)
            << what << ": graph " << g << " dim " << d;
      }
    }
  };
  expect_parity("reference path");  // grad enabled: the taped path
  const NoGradGuard no_grad;
  expect_parity("fused fp32");
}

TEST(BatchedEngine, IndexedForwardMatchesWrapperExactly) {
  Rng rng(43);
  const int dim = 8;
  HgtLayer layer(dim, 2, rng);
  const HetGraph g = make_graph(rng, 6);
  const Tensor x = Tensor::randn({g.num_nodes(), dim}, rng, 0.5f);
  const Tensor via_graph = layer.forward(x, g);
  const Tensor via_index = layer.forward(x, HetGraphIndex(g));
  for (std::size_t i = 0; i < via_graph.numel(); ++i) {
    EXPECT_EQ(via_graph.data()[i], via_index.data()[i]);
  }
}

TEST(BatchedEngine, SegmentSumGradcheck) {
  // Central-difference check of the new segment_sum_rows backward.
  Rng rng(5);
  Tensor x = Tensor::randn({5, 3}, rng, 0.5f, /*requires_grad=*/true);
  const std::vector<int> seg = {0, 2, 0, 2, 1};
  Tensor w = Tensor::randn({4, 3}, rng, 0.5f);  // segment 3 stays empty

  const auto loss_fn = [&] { return sum_all(mul(segment_sum_rows(x, seg, 4), w)); };
  Tensor loss = loss_fn();
  loss.backward();
  const FloatVec analytic = x.grad();

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const float up = loss_fn().item();
    x.data()[i] = saved - eps;
    const float down = loss_fn().item();
    x.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-2f * std::max(1.0f, std::fabs(numeric)));
  }
}

TEST(BatchedEngine, SegmentSumMatchesScatterAdd) {
  Rng rng(6);
  const Tensor x = Tensor::randn({6, 4}, rng);
  const std::vector<int> seg = {1, 0, 1, 2, 0, 1};
  const Tensor a = segment_sum_rows(x, seg, 3);
  const Tensor b = scatter_add_rows(x, seg, 3);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
  EXPECT_THROW(segment_sum_rows(x, seg, 2), std::out_of_range);
}

// ---- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsAllTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForAtFullSaturationDoesNotDeadlock) {
  // Regression: parallel_for used to enqueue-and-wait even when called from
  // one of the pool's own workers. With every worker blocked in future::get()
  // on chunks stuck behind the waiters, the pool deadlocked — exactly what a
  // server doing suggest_batch on pool threads triggers. Nested calls must
  // run inline on the calling worker.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++count; });  // two levels deep
    });
  });
  EXPECT_EQ(count.load(), 8 * 8 * 4);

  // Same at task granularity: a submitted task blocking on parallel_for.
  std::vector<std::future<int>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(pool.submit([&pool] {
      std::atomic<int> inner{0};
      pool.parallel_for(16, [&](std::size_t) { ++inner; });
      return inner.load();
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), 16);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentEncodesMatchSerial) {
  // The serving path encodes per-worker sub-batches concurrently on a shared
  // const model; concurrent forwards must reproduce serial results.
  Rng rng(77);
  const int dim = 16;
  HgtEncoder encoder(dim, 4, 2, rng);
  std::vector<HetGraph> graphs;
  std::vector<Tensor> features;
  std::vector<Tensor> serial;
  for (int g = 0; g < 8; ++g) {
    graphs.push_back(make_graph(rng, 5 + g));
    features.push_back(Tensor::randn({graphs.back().num_nodes(), dim}, rng, 0.5f));
    // Serving configuration on both sides (NoGradGuard routes through the
    // fused kernel): this test is about concurrent-vs-serial determinism,
    // not fused-vs-reference numerics (hgt_fused_test covers those).
    const NoGradGuard no_grad;
    serial.push_back(encoder.forward(features.back(), graphs.back()));
  }
  std::vector<Tensor> concurrent(graphs.size());
  ThreadPool pool(4);
  pool.parallel_for(graphs.size(), [&](std::size_t g) {
    const NoGradGuard no_grad;  // thread-local, as in Pipeline::suggest_batch
    concurrent[g] = encoder.forward(features[g], graphs[g]);
  });
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    ASSERT_EQ(concurrent[g].numel(), serial[g].numel());
    for (std::size_t i = 0; i < serial[g].numel(); ++i) {
      EXPECT_EQ(concurrent[g].data()[i], serial[g].data()[i]) << "graph " << g;
    }
  }
}

// ---- suggest_batch ----------------------------------------------------------

TEST(SuggestBatch, MatchesSequentialSuggest) {
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  const Pipeline pipeline = Pipeline::train(options);

  const std::vector<std::string> sources = {
      "void a(double* x, int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) x[i] = x[i] * 2.0;\n"
      "}\n",
      "int b(void) { return 3; }\n",  // no loops: empty suggestion list
      "void c(double* x, double* y, int n) {\n"
      "  int i;\n"
      "  double s = 0;\n"
      "  for (i = 0; i < n; i++) s += x[i] * y[i];\n"
      "  for (i = 1; i < n; i++) x[i] = x[i - 1];\n"
      "}\n"};
  std::vector<std::string_view> views(sources.begin(), sources.end());

  const auto batched = pipeline.suggest_batch(views);
  ASSERT_EQ(batched.size(), sources.size());
  EXPECT_TRUE(batched[1].empty());

  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto sequential = pipeline.suggest(sources[s]);
    ASSERT_EQ(batched[s].size(), sequential.size()) << "source " << s;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(batched[s][i].parallel, sequential[i].parallel);
      EXPECT_EQ(batched[s][i].category, sequential[i].category);
      EXPECT_EQ(batched[s][i].suggested_pragma, sequential[i].suggested_pragma);
      EXPECT_EQ(batched[s][i].line, sequential[i].line);
      EXPECT_EQ(batched[s][i].function_name, sequential[i].function_name);
      EXPECT_EQ(std::memcmp(&batched[s][i].confidence, &sequential[i].confidence,
                            sizeof(batched[s][i].confidence)),
                0);
    }
  }
}

/// Every field of two suggestions, confidence compared bit for bit.
void expect_identical(const LoopSuggestion& got, const LoopSuggestion& want,
                      const std::string& what) {
  EXPECT_EQ(got.loop_source, want.loop_source) << what;
  EXPECT_EQ(got.line, want.line) << what;
  EXPECT_EQ(got.function_name, want.function_name) << what;
  EXPECT_EQ(got.parallel, want.parallel) << what;
  EXPECT_EQ(std::memcmp(&got.confidence, &want.confidence, sizeof(got.confidence)), 0)
      << what << ": confidence " << got.confidence << " vs " << want.confidence;
  EXPECT_EQ(got.category, want.category) << what;
  EXPECT_EQ(got.suggested_pragma, want.suggested_pragma) << what;
  EXPECT_EQ(got.verdict, want.verdict) << what;
  EXPECT_EQ(got.veto_reason, want.veto_reason) << what;
  EXPECT_EQ(got.repaired_clauses, want.repaired_clauses) << what;
}

TEST(SuggestBatch, LoopSuggestionIsIndependentOfItsBatch) {
  // A loop must get the same bits whether it is served by `suggest`, alone
  // in a batch, or at any row of a batch big enough to be split into
  // per-worker encode chunks and to fill the narrow head products.
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  options.cache_bytes = 0;  // every call runs the model
  Pipeline pipeline = Pipeline::train(options);
  // A batch of >= 32 loops encodes as four chunks.
  pipeline.set_thread_pool(std::make_shared<ThreadPool>(4));

  GeneratorConfig fresh;
  fresh.scale = 0.04;
  fresh.seed = options.corpus.seed + 7;
  std::vector<std::string> sources;
  for (const auto& sample : CorpusGenerator(fresh).generate().samples) {
    if (sources.size() == 40) break;
    if (std::find(sources.begin(), sources.end(), sample.file_source) == sources.end()) {
      sources.push_back(sample.file_source);
    }
  }
  ASSERT_EQ(sources.size(), 40u);

  const std::string entry_backend = backend::active_name();
  for (const char* name : {"scalar", "avx2", "neon"}) {
    if (backend::by_name(name) == nullptr) continue;
    ASSERT_TRUE(backend::set_active(name));
    std::vector<std::vector<LoopSuggestion>> want;
    std::size_t loops = 0;
    for (const auto& src : sources) {
      want.push_back(pipeline.suggest(src));
      loops += want.back().size();
      const std::vector<std::string_view> alone = {src};
      const auto single = pipeline.suggest_batch_results(alone);
      ASSERT_TRUE(single[0].ok());
      ASSERT_EQ(single[0].suggestions.size(), want.back().size());
      for (std::size_t i = 0; i < want.back().size(); ++i) {
        expect_identical(single[0].suggestions[i], want.back()[i],
                         std::string(name) + " alone, loop " + std::to_string(i));
      }
    }
    ASSERT_GE(loops, 32u);

    // Rotations move every loop to other rows, chunks and head-row groups.
    for (const std::size_t shift : {0u, 5u, 11u, 17u, 29u}) {
      std::vector<std::string_view> batch;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        batch.push_back(sources[(s + shift) % sources.size()]);
      }
      const auto results = pipeline.suggest_batch_results(batch);
      for (std::size_t s = 0; s < batch.size(); ++s) {
        const auto& expected = want[(s + shift) % sources.size()];
        ASSERT_TRUE(results[s].ok());
        ASSERT_EQ(results[s].suggestions.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          expect_identical(results[s].suggestions[i], expected[i],
                           std::string(name) + " shift " + std::to_string(shift) + ", slot " +
                               std::to_string(s) + ", loop " + std::to_string(i));
        }
      }
    }
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

TEST(SuggestBatch, EmptyInputAndParseErrors) {
  Pipeline::Options options;
  options.corpus.scale = 0.01;
  options.train.epochs = 1;
  const Pipeline pipeline = Pipeline::train(options);

  EXPECT_TRUE(pipeline.suggest_batch({}).empty());

  const std::vector<std::string_view> bad = {"void ok(void) {}", "int broken( {"};
  EXPECT_THROW(pipeline.suggest_batch(bad), std::exception);
}

}  // namespace
}  // namespace g2p
