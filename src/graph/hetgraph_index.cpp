#include "graph/hetgraph_index.h"

#include <stdexcept>

namespace g2p {

HetGraphIndex::HetGraphIndex(const HetGraph& graph) {
  num_nodes = graph.num_nodes();
  num_edges = graph.num_edges();
  const auto n_sz = static_cast<std::size_t>(num_nodes);

  // Slots: stable counting sort of the nodes by type.
  type_offset.assign(static_cast<std::size_t>(kNumHetNodeTypes) + 1, 0);
  for (const auto& node : graph.nodes) ++type_offset[static_cast<std::size_t>(node.type) + 1];
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    type_offset[static_cast<std::size_t>(t) + 1] += type_offset[static_cast<std::size_t>(t)];
  }
  node_of_slot.resize(n_sz);
  slot_of_node.resize(n_sz);
  {
    std::vector<int> next(type_offset.begin(), type_offset.end() - 1);
    for (int i = 0; i < num_nodes; ++i) {
      const int s = next[static_cast<std::size_t>(graph.nodes[static_cast<std::size_t>(i)].type)]++;
      node_of_slot[static_cast<std::size_t>(s)] = i;
      slot_of_node[static_cast<std::size_t>(i)] = s;
    }
  }
  rows_of_type.resize(static_cast<std::size_t>(kNumHetNodeTypes));
  for (int t = 0; t < kNumHetNodeTypes; ++t) {
    auto& rows = rows_of_type[static_cast<std::size_t>(t)];
    for (int s = type_offset[static_cast<std::size_t>(t)];
         s < type_offset[static_cast<std::size_t>(t) + 1]; ++s) {
      rows.push_back(s);
    }
  }

  // Pass 1: count incoming edges per (edge type, destination slot).
  per_edge_type.resize(static_cast<std::size_t>(kNumHetEdgeTypes));
  for (auto& slice : per_edge_type) slice.row_offsets.assign(n_sz + 1, 0);
  for (const auto& e : graph.edges) {
    if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes) {
      throw std::invalid_argument("HetGraphIndex: edge endpoint out of range");
    }
    ++per_edge_type[static_cast<std::size_t>(e.type)]
          .row_offsets[static_cast<std::size_t>(slot_of_node[static_cast<std::size_t>(e.dst)]) + 1];
  }
  int concat_offset = 0;
  for (auto& slice : per_edge_type) {
    for (std::size_t v = 0; v < n_sz; ++v) slice.row_offsets[v + 1] += slice.row_offsets[v];
    const int count = slice.row_offsets[n_sz];
    slice.src.resize(static_cast<std::size_t>(count));
    slice.dst.resize(static_cast<std::size_t>(count));
    slice.concat_offset = concat_offset;
    concat_offset += count;
  }

  // Pass 2: stable scatter into CSR order (insertion order kept per
  // destination), filling the type-major concat arrays alongside.
  dst_concat.resize(static_cast<std::size_t>(num_edges));
  meta_concat.resize(static_cast<std::size_t>(num_edges));
  std::vector<std::vector<int>> cursor(per_edge_type.size());
  for (std::size_t t = 0; t < per_edge_type.size(); ++t) {
    cursor[t].assign(per_edge_type[t].row_offsets.begin(),
                     per_edge_type[t].row_offsets.end() - 1);
  }
  for (const auto& e : graph.edges) {
    const auto et = static_cast<std::size_t>(e.type);
    const int src = slot_of_node[static_cast<std::size_t>(e.src)];
    const int dst = slot_of_node[static_cast<std::size_t>(e.dst)];
    auto& slice = per_edge_type[et];
    const auto pos = static_cast<std::size_t>(cursor[et][static_cast<std::size_t>(dst)]++);
    slice.src[pos] = src;
    slice.dst[pos] = dst;
    const auto edge = static_cast<std::size_t>(slice.concat_offset) + pos;
    dst_concat[edge] = dst;
    const int src_type = static_cast<int>(graph.nodes[static_cast<std::size_t>(e.src)].type);
    const int dst_type = static_cast<int>(graph.nodes[static_cast<std::size_t>(e.dst)].type);
    meta_concat[edge] =
        (src_type * kNumHetEdgeTypes + static_cast<int>(et)) * kNumHetNodeTypes + dst_type;
  }
}

BatchedGraph batch_graphs(const std::vector<const HetGraph*>& graphs) {
  BatchedGraph out;
  out.num_graphs = static_cast<int>(graphs.size());
  std::size_t total_nodes = 0, total_edges = 0;
  for (const HetGraph* graph : graphs) {
    if (graph == nullptr) throw std::invalid_argument("batch_graphs: null graph");
    total_nodes += graph->nodes.size();
    total_edges += graph->edges.size();
  }
  out.merged.nodes.reserve(total_nodes);
  out.merged.edges.reserve(total_edges);
  out.segment_of_node.reserve(total_nodes);

  int offset = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const HetGraph& graph = *graphs[g];
    const int n = graph.num_nodes();
    for (const auto& node : graph.nodes) {
      out.merged.nodes.push_back(node);
      out.segment_of_node.push_back(static_cast<int>(g));
    }
    for (const auto& e : graph.edges) {
      if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
        throw std::invalid_argument("batch_graphs: edge endpoint out of range");
      }
      out.merged.edges.push_back(HetEdge{e.src + offset, e.dst + offset, e.type});
    }
    offset += n;  // empty graphs contribute no nodes but keep their segment id
  }
  out.index = HetGraphIndex(out.merged);
  return out;
}

}  // namespace g2p
