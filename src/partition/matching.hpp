// Heavy-edge matching and matching-based contraction — the coarsening phase
// of the multilevel partitioner (Karypis–Kumar style).
#pragma once

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "graph/weighted_graph.hpp"
#include "partition/workspace.hpp"

namespace sc::partition {

/// Computes scratch.match[v] = partner of v (or v itself if unmatched).
/// Global greedy: edges are visited heaviest first, weight ties broken by a
/// random shuffle drawn from `rng`, and both endpoints are matched when still
/// free. Storage in `scratch` is reused across calls.
///
/// `max_weight` caps the combined node weight of a matched pair: pairs that
/// would exceed it stay unmatched. Without the cap, deep coarsening
/// degenerates — a heavy supernode's accumulated edges are the heaviest in
/// the graph, so it re-matches every level and snowballs until one coarse
/// node holds nearly the whole graph (observed on 1M-node Huge inputs). The
/// default (infinity) leaves pairs uncapped.
void heavy_edge_matching_ws(const graph::WeightedGraph& g, Rng& rng, MatchScratch& scratch,
                            double max_weight = std::numeric_limits<double>::infinity());

/// Contracts matched pairs into single coarse nodes (weights summed,
/// parallel coarse edges merged), written into caller-retained storage:
/// out_map[v] is v's coarse node and out_coarse is rebuilt in place;
/// weight_buf/edge_buf/dedup are scratch.
void contract_matching_ws(const graph::WeightedGraph& g,
                          const std::vector<graph::NodeId>& match,
                          std::vector<double>& weight_buf,
                          std::vector<graph::WeightedEdge>& edge_buf,
                          graph::EdgeDedupScratch& dedup,
                          std::vector<graph::NodeId>& out_map,
                          graph::WeightedGraph& out_coarse);

}  // namespace sc::partition
