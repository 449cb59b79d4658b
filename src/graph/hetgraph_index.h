// Precomputed adjacency for heterogeneous message passing.
//
// The HGT layer (formulas 1-5 of §5.2) needs, for every edge type φ(e), the
// list of edges grouped by destination node: attention is softmax-normalized
// over the incoming edges of each target, and W_ATT / W_MSG are φ-indexed.
// Rebuilding those groupings from the flat edge list costs O(E) per layer per
// forward; a HetGraphIndex computes them once per graph (or per batch) as
// per-edge-type CSR adjacency and is shared by every layer of the encoder.
//
// Layout. Nodes are numbered in *slots*: a stable counting sort by node type,
// so slot s holds node `node_of_slot[s]`, all nodes of type 0 come first,
// then type 1, ..., and nodes of one type keep their insertion order. Node
// type τ owns the contiguous slot range [type_offset[τ], type_offset[τ+1]),
// which lets the per-type K/Q/V/A projections run as one contiguous GEMM per
// type with no gather or scatter. Everything the HGT layers read is in slot
// space: the CSR blocks (`row_offsets` is indexed by destination slot, `src`
// and `dst` hold slots), `dst_concat`, and `rows_of_type` (which are slot
// ranges). `meta_concat` holds meta-relation ids, which do not depend on
// the numbering. A graph whose nodes are already type-sorted has identity
// slots. Callers holding node-ordered rows map them with `node_of_slot`
// (gather into slot order) and `slot_of_node` (back to node order).
//
// Edges are ordered type-major: all edges of edge type 0 first, then type 1,
// ... Within one type they are in CSR order — sorted by destination slot,
// ties kept in insertion order (the counting sort is stable), so the
// incoming-edge list of each node preserves the original edge order. This
// makes a batched forward accumulate per-node sums in exactly the same order
// as a single-graph forward, which is what the batched-vs-sequential parity
// tests rely on.
#pragma once

#include <vector>

#include "graph/hetgraph.h"

namespace g2p {

struct HetGraphIndex {
  /// CSR block of one edge type φ. Incoming edges of slot v occupy positions
  /// [row_offsets[v], row_offsets[v+1]) of `src` / `dst`.
  struct EdgeTypeSlice {
    std::vector<int> row_offsets;  // size num_nodes + 1
    std::vector<int> src;          // source slot of each edge, CSR order
    std::vector<int> dst;          // destination slot of each edge, CSR order
    int concat_offset = 0;         // block start in the type-major edge order
    bool empty() const { return src.empty(); }
    int size() const { return static_cast<int>(src.size()); }

    // Per-destination walk: incoming edges of slot v occupy CSR positions
    // [in_begin(v), in_end(v)) of `src`; position p is edge
    // `concat_offset + p` of the type-major order (the dst_concat /
    // meta_concat index). Valid on every slice of a built index — the
    // constructor sizes row_offsets to num_nodes + 1 even for edge types
    // with no edges — but not on a default-constructed slice.
    int in_begin(int v) const { return row_offsets[static_cast<std::size_t>(v)]; }
    int in_end(int v) const { return row_offsets[static_cast<std::size_t>(v) + 1]; }
    int in_degree(int v) const { return in_end(v) - in_begin(v); }
  };

  int num_nodes = 0;
  int num_edges = 0;

  /// Node id at each slot (size num_nodes): the type-major permutation.
  std::vector<int> node_of_slot;
  /// Inverse of node_of_slot: the slot of each node id.
  std::vector<int> slot_of_node;
  /// Slot range of each node type τ: [type_offset[τ], type_offset[τ+1])
  /// (size kNumHetNodeTypes + 1).
  std::vector<int> type_offset;
  /// One CSR block per edge type, φ-indexed (size kNumHetEdgeTypes).
  std::vector<EdgeTypeSlice> per_edge_type;
  /// Slots of each node type τ (size kNumHetNodeTypes), i.e. the ranges of
  /// type_offset spelled out — the taped reference path's per-type row
  /// selection.
  std::vector<std::vector<int>> rows_of_type;
  /// Destination slot of every edge in the type-major order (size
  /// num_edges); the segment key for attention softmax and message
  /// aggregation.
  std::vector<int> dst_concat;
  /// Meta-relation id (τ(s), φ(e), τ(t)) of every edge, same order; gathers
  /// the µ prior of formula 2.
  std::vector<int> meta_concat;

  /// Total incoming edges of slot v across every edge type.
  int total_in_degree(int v) const {
    int deg = 0;
    for (const auto& slice : per_edge_type) {
      if (!slice.empty()) deg += slice.in_degree(v);
    }
    return deg;
  }

  HetGraphIndex() = default;
  /// Build in O(V + E) with stable counting sorts. Throws
  /// std::invalid_argument if an edge endpoint is out of range.
  explicit HetGraphIndex(const HetGraph& graph);
};

/// Disjoint union of graphs for mini-batching. `merged` and
/// `segment_of_node[i]` (the index of the source graph of node i, the graph
/// readout pooling key) are in concatenation order; graphs with no nodes
/// contribute an empty segment, so readouts stay aligned with the input
/// list. `index` is the precomputed adjacency of `merged`, in its own slot
/// order.
struct BatchedGraph {
  HetGraph merged;
  std::vector<int> segment_of_node;
  int num_graphs = 0;
  HetGraphIndex index;
};

/// Merge graphs into one disjoint union and index it. Null entries and
/// out-of-range edges throw; empty graphs are legal and keep their segment.
BatchedGraph batch_graphs(const std::vector<const HetGraph*>& graphs);

}  // namespace g2p
