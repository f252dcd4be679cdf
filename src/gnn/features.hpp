// Feature extraction: numeric node/edge features for the coarsening model
// and the learning-based baselines.
//
// Node features follow the paper (CPU utilization and emitted payload),
// extended with consumed traffic, degrees and normalised depth which are
// cheap and strictly graph-local. Edge features carry the data-saturation
// rate (the quantity Fig. 9 analyses) plus normalised traffic shares.
// All features are scale-free: loads are normalised by device/link capacity
// so a model trained on one setting transfers to another.
#pragma once

#include <vector>

#include "graph/rates.hpp"
#include "graph/stream_graph.hpp"
#include "nn/tensor.hpp"
#include "sim/cluster.hpp"

namespace sc::gnn {

inline constexpr std::size_t kNodeFeatureDim = 6;
inline constexpr std::size_t kEdgeFeatureDim = 3;

struct GraphFeatures {
  nn::Tensor node;  ///< (n, kNodeFeatureDim), no grad
  nn::Tensor edge;  ///< (m, kEdgeFeatureDim), no grad (zero-row tensor if m = 0)
  std::vector<std::size_t> edge_src;  ///< per-edge source node index
  std::vector<std::size_t> edge_dst;  ///< per-edge target node index
};

/// Builds features for `g` under cluster `spec` at its nominal source rate.
GraphFeatures extract_features(const graph::StreamGraph& g,
                               const graph::LoadProfile& profile,
                               const sim::ClusterSpec& spec);

/// Block-diagonal packing of several graphs into one feature set. sc_serve
/// batches concurrent requests this way (serve/service.cpp); the trainer
/// runs one forward per graph on pool tasks instead (DESIGN.md §5.3).
///
/// Node rows are concatenated in input order and edge endpoints are shifted
/// by each graph's node offset, so a single encoder/scorer forward over
/// `merged` computes exactly the per-graph forwards: message passing never
/// crosses graph boundaries (edges stay within their block and scatter_mean
/// buckets are disjoint), hence the logits for graph `gi` are the slice
/// `[edge_offset[gi], edge_offset[gi + 1])` of the batched logit vector,
/// bit-identical to running that graph alone.
struct BatchedGraphFeatures {
  GraphFeatures merged;                  ///< packed features of all graphs
  std::vector<std::size_t> node_offset;  ///< size G+1; graph gi owns node rows [off[gi], off[gi+1])
  std::vector<std::size_t> edge_offset;  ///< size G+1; graph gi owns edge rows [off[gi], off[gi+1])

  std::size_t num_graphs() const { return node_offset.empty() ? 0 : node_offset.size() - 1; }
  std::size_t num_edges(std::size_t gi) const {
    return edge_offset[gi + 1] - edge_offset[gi];
  }
};

/// Packs the given per-graph features into one block-diagonal batch.
/// Edgeless graphs contribute zero edge rows (their 1-row zero placeholder
/// edge tensor is skipped); if every graph is edgeless the merged edge
/// tensor keeps the usual single zero row.
BatchedGraphFeatures batch_features(const std::vector<const GraphFeatures*>& parts);

/// Extracts graph `gi`'s logits from a batched logit vector (values copied).
std::vector<double> logit_slice(const std::vector<double>& batched_logits,
                                const BatchedGraphFeatures& b, std::size_t gi);

}  // namespace sc::gnn
