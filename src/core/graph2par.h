// Graph2Par: the paper's model — heterogeneous aug-AST in, pragma
// predictions out (§5.2).
//
// Architecture: node features = type-embedding + token-embedding +
// position-embedding (the heterogeneous attributes of §5.1.1), a stack of
// HGT layers, mean pooling over each graph, and five 2-way heads:
// pragma existence (Table 2/3/4) plus private / reduction / simd / target
// (Table 5). The same class with cfg/lexical/call edges disabled at graph
// construction is the "HGT-AST" vanilla baseline of Table 3.
#pragma once

#include <memory>

#include "core/aug_ast.h"
#include "graph/hetgraph.h"
#include "graph/hetgraph_index.h"
#include "nn/hgt.h"
#include "nn/layers.h"

namespace g2p {

struct Graph2ParConfig {
  int vocab_size = 0;   // required
  int dim = 32;
  int heads = 4;
  int layers = 2;
  int max_position = 8;  // sibling-position attribute clamp + 1
};

/// Task heads, indexable for uniform evaluation.
enum class PredictionTask {
  kParallel = 0,  // pragma existence
  kPrivate = 1,
  kReduction = 2,
  kSimd = 3,
  kTarget = 4,
};
inline constexpr int kNumPredictionTasks = 5;

std::string_view prediction_task_name(PredictionTask task);

class Graph2ParModel : public Module {
 public:
  Graph2ParModel(const Graph2ParConfig& config, Rng& rng);

  /// Initial node features from the heterogeneous attributes, one row per
  /// slot of `index` (the HetGraphIndex of `graph`): row s describes node
  /// index.node_of_slot[s].
  Tensor node_features(const HetGraph& graph, const HetGraphIndex& index) const;

  /// Pooled graph representations [num_graphs, dim] for a batched graph.
  /// The batch's precomputed CSR index drives every HGT layer in its slot
  /// order; the readout is a segment-mean keyed by each slot's
  /// `segment_of_node` entry (empty graphs pool to 0).
  Tensor encode(const BatchedGraph& batch) const;

  /// Single-graph convenience wrapper -> pooled [1, dim].
  Tensor encode(const HetGraph& graph) const;

  /// Logits [num_graphs, 2] for one task head.
  Tensor task_logits(const Tensor& pooled, PredictionTask task) const;

  const Graph2ParConfig& config() const { return config_; }

 private:
  Graph2ParConfig config_;
  Embedding type_embed_;
  Embedding token_embed_;
  Embedding position_embed_;
  HgtEncoder encoder_;
  std::vector<std::unique_ptr<Linear>> heads_;
};

}  // namespace g2p
