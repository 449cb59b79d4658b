// Fused HGT inference kernel vs the taped reference implementation.
//
// The fused path (HgtLayer::forward_fused) must agree with the reference
// (HgtLayer::forward_reference) within 1e-5 relative tolerance on any graph:
// the two compute the same formulas with different op fusion, so only float
// rounding may differ. Also covered: the fused weight cache noticing
// parameter mutation (optimizer step, checkpoint load), and scalar vs SIMD
// backend dispatch agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>
#include <sstream>
#include <string>

#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "support/rng.h"
#include "tensor/backend.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace g2p {
namespace {

constexpr double kTol = 1e-5;

/// Random heterogeneous graph over a subset of edge types — leaving types
/// out exercises the empty-edge-type-slice paths on both implementations.
HetGraph random_graph(Rng& rng, int nodes, int edges,
                      std::initializer_list<HetEdgeType> edge_types) {
  HetGraph g;
  for (int i = 0; i < nodes; ++i) {
    g.add_node(static_cast<HetNodeType>(static_cast<int>(rng.uniform_int(0, kNumHetNodeTypes - 1))), 0,
               static_cast<int>(rng.uniform_int(0, 3)));
  }
  std::vector<HetEdgeType> types(edge_types);
  for (int e = 0; e < edges && !types.empty(); ++e) {
    g.add_edge(static_cast<int>(rng.uniform_int(0, nodes - 1)), static_cast<int>(rng.uniform_int(0, nodes - 1)),
               types[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(types.size()) - 1))]);
  }
  return g;
}

double max_rel_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    const double scale = std::max({1.0, std::fabs(av), std::fabs(bv)});
    worst = std::max(worst, std::fabs(av - bv) / scale);
  }
  return worst;
}

void expect_fused_matches_reference(const HgtLayer& layer, const Tensor& x,
                                    const HetGraphIndex& index, const char* what) {
  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol) << what;
}

TEST(HgtFused, RandomizedGraphsMatchReferenceAcrossHeads) {
  Rng rng(1234);
  for (const int heads : {1, 2, 4}) {
    const int dim = 16;  // head_dim 16 / 8 / 4: hits every backend block width
    HgtLayer layer(dim, heads, rng);
    for (int trial = 0; trial < 6; ++trial) {
      const int nodes = 3 + static_cast<int>(rng.uniform_int(0, 39));
      const HetGraph g = random_graph(
          rng, nodes, nodes * (1 + static_cast<int>(rng.uniform_int(0, 3))),
          trial % 2 == 0
              ? std::initializer_list<HetEdgeType>{HetEdgeType::kAstChild,
                                                   HetEdgeType::kAstParent,
                                                   HetEdgeType::kCfgNext, HetEdgeType::kLexNext}
              : std::initializer_list<HetEdgeType>{HetEdgeType::kLexPrev});
      const HetGraphIndex index(g);
      const Tensor x = Tensor::randn({nodes, dim}, rng, 0.8f);
      expect_fused_matches_reference(layer, x, index, "randomized graph");
    }
  }
}

TEST(HgtFused, SingleNodeGraphs) {
  Rng rng(77);
  HgtLayer layer(16, 4, rng);
  // No edges: both paths degenerate to the residual.
  HetGraph isolated;
  isolated.add_node(HetNodeType::kLoop, 0, 0);
  const Tensor x = Tensor::randn({1, 16}, rng, 1.0f);
  {
    const NoGradGuard no_grad;
    const Tensor out = layer.forward_fused(x, HetGraphIndex(isolated));
    for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(out.data()[i], x.data()[i]);
  }
  // Self-loop: a real softmax over exactly one edge.
  HetGraph self_loop = isolated;
  self_loop.add_edge(0, 0, HetEdgeType::kCfgNext);
  expect_fused_matches_reference(layer, x, HetGraphIndex(self_loop), "self loop");
}

TEST(HgtFused, EmptyGraph) {
  Rng rng(5);
  HgtLayer layer(16, 2, rng);
  const HetGraph empty;
  const Tensor x = Tensor::zeros({0, 16});
  const NoGradGuard no_grad;
  const Tensor out = layer.forward_fused(x, HetGraphIndex(empty));
  EXPECT_EQ(out.dim(0), 0);
  EXPECT_EQ(out.dim(1), 16);
}

TEST(HgtFused, NodesWithoutIncomingEdgesKeepResidualState) {
  Rng rng(42);
  HgtLayer layer(16, 2, rng);
  // Node 2 has no incoming edges; its h~ row is zero, so its output must be
  // a_lin(gelu(0)) + x — identical between the two paths.
  HetGraph g;
  for (int i = 0; i < 3; ++i) g.add_node(HetNodeType::kBinaryOp, 0, 0);
  g.add_edge(2, 0, HetEdgeType::kAstChild);
  g.add_edge(0, 1, HetEdgeType::kAstChild);
  const Tensor x = Tensor::randn({3, 16}, rng, 1.0f);
  expect_fused_matches_reference(layer, x, HetGraphIndex(g), "isolated-target node");
}

TEST(HgtFused, ForwardRoutesToFusedUnderNoGrad) {
  Rng rng(9);
  HgtLayer layer(16, 4, rng);
  const HetGraph g = random_graph(rng, 12, 30,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({12, 16}, rng, 0.5f);
  const NoGradGuard no_grad;
  const Tensor routed = layer.forward(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  for (std::size_t i = 0; i < routed.numel(); ++i) {
    EXPECT_EQ(routed.data()[i], fused.data()[i]);
  }
  // Opting out pins the reference path.
  HgtLayer& mutable_layer = layer;
  mutable_layer.set_fused_inference(false);
  const Tensor pinned = layer.forward(x, index);
  const Tensor ref = layer.forward_reference(x, index);
  for (std::size_t i = 0; i < pinned.numel(); ++i) {
    EXPECT_EQ(pinned.data()[i], ref.data()[i]);
  }
}

TEST(HgtFused, OptimizerStepInvalidatesWeightCache) {
  Rng rng(2024);
  HgtLayer layer(16, 2, rng);
  const HetGraph g = random_graph(rng, 20, 60,
                                  {HetEdgeType::kAstChild, HetEdgeType::kCfgNext});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({20, 16}, rng, 0.7f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);  // builds the fused weight cache
  }

  // One taped training step mutates every parameter (incl. W_ATT / W_MSG).
  Sgd opt(layer.parameters(), 0.05f);
  opt.zero_grad();
  sum_all(layer.forward_reference(x, index)).backward();
  opt.step();

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol)
      << "fused cache served stale weights after optimizer step";
  EXPECT_GT(max_rel_diff(before, fused), 1e-4) << "step had no observable effect";
}

TEST(HgtFused, CheckpointLoadInvalidatesWeightCache) {
  Rng rng_a(1), rng_b(999);
  HgtLayer source(16, 2, rng_a);
  HgtLayer target(16, 2, rng_b);  // different init
  const HetGraph g = random_graph(rng_a, 15, 40, {HetEdgeType::kAstChild});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({15, 16}, rng_a, 0.6f);

  Tensor expected, stale;
  {
    const NoGradGuard no_grad;
    expected = source.forward_fused(x, index);
    stale = target.forward_fused(x, index);  // builds target's cache pre-load
  }

  std::stringstream checkpoint;
  source.save(checkpoint);
  target.load(checkpoint);

  const NoGradGuard no_grad;
  const Tensor fused = target.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(expected, fused), kTol)
      << "fused cache served stale weights after checkpoint load";
  EXPECT_LE(max_rel_diff(target.forward_reference(x, index), fused), kTol);
  EXPECT_GT(max_rel_diff(stale, fused), 1e-4) << "load had no observable effect";
}

TEST(HgtFused, FusedProjectionsMatchPerTypeLinears) {
  // The fused path computes K/Q/V as one wide [rows, dim] x [dim, 3*dim]
  // GEMM per node type (and A as a cached-operand GEMM over the activated
  // aggregate); the reference path runs the four taped per-type Linears.
  // Same math, different fusion — they must agree to float rounding.
  Rng rng(4242);
  for (const int heads : {2, 4}) {
    const int dim = 32;  // the serving shape's wide GEMM is [N, 32] x [32, 96]
    HgtLayer layer(dim, heads, rng);
    const HetGraph g = random_graph(rng, 200, 700,
                                    {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                     HetEdgeType::kCfgNext, HetEdgeType::kLexNext});
    const HetGraphIndex index(g);
    const Tensor x = Tensor::randn({200, dim}, rng, 0.7f);
    expect_fused_matches_reference(layer, x, index, "fused projections");
  }
}

TEST(HgtFused, DirectProjectionWeightPokeInvalidatesCache) {
  // The repack now also covers the K/Q/V/A Linears: mutating one of their
  // parameters directly (what a checkpoint load or a test poke does) must
  // rebuild the fused projection operands.
  Rng rng(555);
  HgtLayer layer(16, 2, rng);
  const HetGraph g = random_graph(rng, 25, 80, {HetEdgeType::kAstChild, HetEdgeType::kCfgPrev});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({25, 16}, rng, 0.6f);

  Tensor before;
  {
    const NoGradGuard no_grad;
    before = layer.forward_fused(x, index);  // builds the projection repack
  }
  // parameters() order starts with the per-type K/Q/V/A Linears; poke the
  // first weight (a K projection) through the mutation-counting accessor.
  Tensor first = layer.parameters().front();
  for (auto& v : first.data()) v += 0.25f;

  const NoGradGuard no_grad;
  const Tensor ref = layer.forward_reference(x, index);
  const Tensor fused = layer.forward_fused(x, index);
  EXPECT_LE(max_rel_diff(ref, fused), kTol)
      << "fused projection cache served stale K weights after direct poke";
  EXPECT_GT(max_rel_diff(before, fused), 1e-4) << "poke had no observable effect";
}

TEST(HgtFused, ScalarAndDispatchedBackendsAgree) {
  Rng rng(31337);
  HgtLayer layer(32, 4, rng);  // the serving shape: dim 32, head_dim 8
  const HetGraph g = random_graph(rng, 30, 120,
                                  {HetEdgeType::kAstChild, HetEdgeType::kAstParent,
                                   HetEdgeType::kCfgNext, HetEdgeType::kCfgPrev,
                                   HetEdgeType::kLexNext, HetEdgeType::kLexPrev});
  const HetGraphIndex index(g);
  const Tensor x = Tensor::randn({30, 32}, rng, 0.5f);

  // Restore whatever the suite ran under when done — CI forces the scalar
  // table via G2P_BACKEND, and later tests must keep seeing it.
  const std::string entry_backend = backend::active_name();

  ASSERT_TRUE(backend::set_active("scalar"));
  Tensor scalar_fused, scalar_ref;
  {
    const NoGradGuard no_grad;
    scalar_ref = layer.forward_reference(x, index);
    scalar_fused = layer.forward_fused(x, index);
  }
  EXPECT_LE(max_rel_diff(scalar_ref, scalar_fused), kTol) << "scalar backend";

  // Whatever dispatch picks for this machine (avx2 / neon / scalar again).
  ASSERT_TRUE(backend::set_active("auto"));
  {
    const NoGradGuard no_grad;
    const Tensor auto_fused = layer.forward_fused(x, index);
    const Tensor auto_ref = layer.forward_reference(x, index);
    EXPECT_LE(max_rel_diff(auto_ref, auto_fused), kTol)
        << "dispatched backend " << backend::active_name();
    EXPECT_LE(max_rel_diff(scalar_fused, auto_fused), kTol)
        << "scalar vs " << backend::active_name();
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

/// Outputs of the four fused edge kernels on one edge block.
struct EdgeKernelOutputs {
  std::vector<float> logits, logits_direct, node_max, node_max_direct;
  std::vector<float> acc, acc_direct, denom, denom_direct;
};

/// Run hgt_logits / hgt_accumulate (over head_map pre-mapped rows) and their
/// _direct forms from `table`, reading K, Q and V rows of stride `ld` at
/// `k`, `q`, `v` — the fused forward's layout is the interleaved [n, 3*dim]
/// K|Q|V buffer with ld = 3*dim.
EdgeKernelOutputs run_edge_kernels(const backend::Kernels& table, const float* k, const float* q,
                                   const float* v, int ld, int n, int heads, int hd,
                                   const std::vector<float>& w_att,
                                   const std::vector<float>& w_msg, const std::vector<int>& srcs,
                                   const std::vector<int>& dsts, const std::vector<int>& metas,
                                   const std::vector<float>& mu) {
  const int dim = heads * hd;
  const int count = static_cast<int>(srcs.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const auto row_elems = static_cast<std::size_t>(n) * static_cast<std::size_t>(dim);
  const auto head_elems = static_cast<std::size_t>(n) * static_cast<std::size_t>(heads);
  const auto edge_elems = static_cast<std::size_t>(count) * static_cast<std::size_t>(heads);
  const float neg_inf = -std::numeric_limits<float>::infinity();
  EdgeKernelOutputs o;
  o.logits.resize(edge_elems);
  o.logits_direct.resize(edge_elems);
  o.node_max.assign(head_elems, neg_inf);
  o.node_max_direct.assign(head_elems, neg_inf);
  o.acc.assign(row_elems, 0.0f);
  o.acc_direct.assign(row_elems, 0.0f);
  o.denom.assign(head_elems, 0.0f);
  o.denom_direct.assign(head_elems, 0.0f);
  std::vector<float> k_map(row_elems), v_map(row_elems);
  table.head_map(k, ld, w_att.data(), k_map.data(), n, heads, hd);
  table.head_map(v, ld, w_msg.data(), v_map.data(), n, heads, hd);
  table.hgt_logits(k_map.data(), dim, q, ld, srcs.data(), dsts.data(), metas.data(), mu.data(),
                   count, heads, hd, scale, o.logits.data(), o.node_max.data());
  table.hgt_logits_direct(k, ld, q, ld, w_att.data(), srcs.data(), dsts.data(), metas.data(),
                          mu.data(), count, heads, hd, scale, o.logits_direct.data(),
                          o.node_max_direct.data());
  table.hgt_accumulate(v_map.data(), dim, srcs.data(), dsts.data(), count, o.logits.data(),
                       o.node_max.data(), heads, hd, o.acc.data(), o.denom.data());
  table.hgt_accumulate_direct(v, ld, w_msg.data(), srcs.data(), dsts.data(), count,
                              o.logits_direct.data(), o.node_max_direct.data(), heads, hd,
                              o.acc_direct.data(), o.denom_direct.data());
  return o;
}

double max_rel_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::fabs(double{a[i]}), std::fabs(double{b[i]})});
    worst = std::max(worst, std::fabs(double{a[i]} - double{b[i]}) / scale);
  }
  return worst;
}

TEST(HgtFused, EdgeKernelsReadInterleavedKqvRows) {
  // Every edge kernel must read K, Q and V in place from the interleaved
  // [n, 3*dim] buffer: the scalar table on strided rows must equal itself
  // on contiguous copies exactly, and the dispatched table must agree with
  // the scalar one within float rounding.
  Rng rng(5150);
  const int n = 37, count = 150;
  const int num_meta = kNumHetNodeTypes * kNumHetEdgeTypes * kNumHetNodeTypes;
  for (const auto& [heads, hd] : {std::pair{4, 8}, std::pair{2, 8}, std::pair{4, 4},
                                  std::pair{1, 16}}) {
    const int dim = heads * hd;
    const int ld = 3 * dim;
    const auto random_vec = [&](std::size_t size, float bound) {
      std::vector<float> out(size);
      for (auto& value : out) value = static_cast<float>(rng.uniform(-bound, bound));
      return out;
    };
    const std::vector<float> kqv = random_vec(static_cast<std::size_t>(n) * ld, 1.0f);
    const std::size_t block = static_cast<std::size_t>(heads) * hd * hd;
    const std::vector<float> w_att = random_vec(block, 0.5f);
    const std::vector<float> w_msg = random_vec(block, 0.5f);
    const std::vector<float> mu = random_vec(static_cast<std::size_t>(num_meta), 1.5f);
    std::vector<int> srcs, dsts, metas;
    for (int p = 0; p < count; ++p) {
      srcs.push_back(static_cast<int>(rng.uniform_int(0, n - 1)));
      // The first n edges reach every node, so no node_max stays at -inf.
      dsts.push_back(p < n ? p : static_cast<int>(rng.uniform_int(0, n - 1)));
      metas.push_back(static_cast<int>(rng.uniform_int(0, num_meta - 1)));
    }
    // Contiguous [n, dim] copies of the K, Q and V column blocks.
    std::vector<float> k(static_cast<std::size_t>(n) * dim), q(k.size()), v(k.size());
    for (int i = 0; i < n; ++i) {
      const float* row = kqv.data() + static_cast<std::size_t>(i) * ld;
      std::copy_n(row, dim, k.data() + static_cast<std::size_t>(i) * dim);
      std::copy_n(row + dim, dim, q.data() + static_cast<std::size_t>(i) * dim);
      std::copy_n(row + 2 * dim, dim, v.data() + static_cast<std::size_t>(i) * dim);
    }

    const auto run = [&](const backend::Kernels& table, bool interleaved) {
      return interleaved ? run_edge_kernels(table, kqv.data(), kqv.data() + dim,
                                            kqv.data() + 2 * dim, ld, n, heads, hd, w_att, w_msg,
                                            srcs, dsts, metas, mu)
                         : run_edge_kernels(table, k.data(), q.data(), v.data(), dim, n, heads,
                                            hd, w_att, w_msg, srcs, dsts, metas, mu);
    };
    const EdgeKernelOutputs contiguous = run(backend::scalar(), false);
    const EdgeKernelOutputs strided = run(backend::scalar(), true);
    const EdgeKernelOutputs dispatched = run(backend::active(), true);
    const std::string shape = "heads " + std::to_string(heads) + " hd " + std::to_string(hd) +
                              " on " + backend::active_name();
    EXPECT_EQ(strided.logits, contiguous.logits) << shape;
    EXPECT_EQ(strided.logits_direct, contiguous.logits_direct) << shape;
    EXPECT_EQ(strided.acc, contiguous.acc) << shape;
    EXPECT_EQ(strided.acc_direct, contiguous.acc_direct) << shape;
    EXPECT_EQ(strided.denom_direct, contiguous.denom_direct) << shape;
    EXPECT_LE(max_rel_diff(dispatched.logits, strided.logits), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.node_max, strided.node_max), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.logits_direct, strided.logits_direct), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.node_max_direct, strided.node_max_direct), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.acc, strided.acc), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.denom, strided.denom), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.acc_direct, strided.acc_direct), kTol) << shape;
    EXPECT_LE(max_rel_diff(dispatched.denom_direct, strided.denom_direct), kTol) << shape;
  }
}

}  // namespace
}  // namespace g2p
