#include "core/graph2par.h"

#include <stdexcept>

namespace g2p {

std::string_view prediction_task_name(PredictionTask task) {
  switch (task) {
    case PredictionTask::kParallel: return "parallel";
    case PredictionTask::kPrivate: return "private";
    case PredictionTask::kReduction: return "reduction";
    case PredictionTask::kSimd: return "simd";
    case PredictionTask::kTarget: return "target";
  }
  return "?";
}

Graph2ParModel::Graph2ParModel(const Graph2ParConfig& config, Rng& rng)
    : config_(config),
      type_embed_(kNumHetNodeTypes, config.dim, rng),
      token_embed_(config.vocab_size, config.dim, rng),
      position_embed_(config.max_position, config.dim, rng),
      encoder_(config.dim, config.heads, config.layers, rng) {
  if (config.vocab_size <= 0) {
    throw std::invalid_argument("Graph2ParModel: vocab_size must be set");
  }
  register_child(type_embed_);
  register_child(token_embed_);
  register_child(position_embed_);
  register_child(encoder_);
  for (int t = 0; t < kNumPredictionTasks; ++t) {
    heads_.push_back(std::make_unique<Linear>(config.dim, 2, rng));
    register_child(*heads_.back());
  }
}

Tensor Graph2ParModel::node_features(const HetGraph& graph, const HetGraphIndex& index) const {
  std::vector<int> types, tokens, positions;
  types.reserve(graph.nodes.size());
  tokens.reserve(graph.nodes.size());
  positions.reserve(graph.nodes.size());
  for (const int v : index.node_of_slot) {
    const auto& node = graph.nodes[static_cast<std::size_t>(v)];
    types.push_back(static_cast<int>(node.type));
    tokens.push_back(node.token_id < config_.vocab_size ? node.token_id : 0);
    positions.push_back(std::min(node.position, config_.max_position - 1));
  }
  return add(add(type_embed_.forward(types), token_embed_.forward(tokens)),
             position_embed_.forward(positions));
}

Tensor Graph2ParModel::encode(const BatchedGraph& batch) const {
  // The whole encode stays in the index's slot order: embeddings are looked
  // up slot by slot, the encoder runs without permuting rows, and the
  // readout pools by each slot's segment.
  const HetGraphIndex& index = batch.index;
  const Tensor features = node_features(batch.merged, index);
  const Tensor states = encoder_.forward_slots(features, index);
  std::vector<int> segment_of_slot;
  segment_of_slot.reserve(index.node_of_slot.size());
  for (const int v : index.node_of_slot) {
    segment_of_slot.push_back(batch.segment_of_node[static_cast<std::size_t>(v)]);
  }
  return segment_mean_rows(states, segment_of_slot, batch.num_graphs);
}

Tensor Graph2ParModel::encode(const HetGraph& graph) const {
  return encode(batch_graphs({&graph}));
}

Tensor Graph2ParModel::task_logits(const Tensor& pooled, PredictionTask task) const {
  return heads_[static_cast<std::size_t>(task)]->forward(pooled);
}

}  // namespace g2p
