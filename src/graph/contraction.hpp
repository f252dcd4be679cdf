// Edge-collapse contraction: turn a per-edge merge decision into a
// coarsened graph plus the map-back function F : V -> V' (Sec. III of the
// paper). Merged nodes sum their CPU demand; parallel coarse edges merge
// by summing traffic; internal edges vanish.
#pragma once

#include <span>
#include <vector>

#include "graph/rates.hpp"
#include "graph/stream_graph.hpp"
#include "graph/types.hpp"
#include "graph/union_find.hpp"
#include "graph/weighted_graph.hpp"

namespace sc::graph {

/// Result of contracting a stream graph under an edge-collapse mask.
/// The inverse image is stored flat (CSR-style): the members of coarse node
/// c are group_members[group_offsets[c] .. group_offsets[c+1]), in ascending
/// original-node order. Flat storage lets workspaces reuse two buffers per
/// contraction instead of one vector per supernode.
struct Coarsening {
  /// Coarse partitioning view: node weight = summed CPU, edge weight = traffic.
  WeightedGraph coarse;
  /// F: original node -> coarse node.
  std::vector<NodeId> node_map;
  /// Offsets into group_members, size num_coarse_nodes() + 1.
  std::vector<std::size_t> group_offsets;
  /// Concatenated group member lists (a permutation of 0..|V|-1).
  std::vector<NodeId> group_members;

  std::size_t num_coarse_nodes() const {
    return group_offsets.empty() ? 0 : group_offsets.size() - 1;
  }

  /// Members of coarse node cid (the preimage of cid under F).
  std::span<const NodeId> group(std::size_t cid) const {
    return {group_members.data() + group_offsets[cid],
            group_members.data() + group_offsets[cid + 1]};
  }

  /// |V| / |V'| — the paper's "compressed ratio" (Fig. 8).
  double compression_ratio() const {
    const std::size_t k = num_coarse_nodes();
    return k == 0 ? 1.0
                  : static_cast<double>(node_map.size()) / static_cast<double>(k);
  }

  /// Expands a coarse placement (device per coarse node) to the original graph.
  std::vector<int> expand_placement(const std::vector<int>& coarse_placement) const;
};

/// Per-thread reusable workspace for contract_into. After warm-up at a given
/// graph size, a contraction performs no heap allocations (DESIGN.md §5.4).
struct ContractionScratch {
  UnionFind dsu;
  std::vector<NodeId> root_to_id;
  std::vector<double> weights;
  std::vector<WeightedEdge> coarse_edges;
  EdgeDedupScratch dedup;
};

namespace contraction_scratch {
/// This thread's scratch instance (one workspace set per worker thread).
ContractionScratch& local();
}  // namespace contraction_scratch

/// Contracts `g` by merging the endpoints of every edge e with mask[e] = true.
/// `profile` supplies the unit-rate loads used as coarse weights. Runs
/// contract_into on this thread's scratch and returns a copy of the result.
Coarsening contract(const StreamGraph& g, const LoadProfile& profile,
                    const std::vector<bool>& mask);

/// Scratch-based contraction: `out` is overwritten and its buffers are
/// reused across calls (shrink/grow safe), so a warm call allocates nothing.
void contract_into(const StreamGraph& g, const LoadProfile& profile,
                   const std::vector<bool>& mask, ContractionScratch& scratch,
                   Coarsening& out);

/// Contracts by an explicit node->group assignment (groups need not be
/// contiguous ids; they are compacted). Used to build coarse views from
/// partitioner output and from baseline groupers.
Coarsening contract_by_groups(const StreamGraph& g, const LoadProfile& profile,
                              const std::vector<NodeId>& group_of_node);

/// Infers an edge-collapse mask that reproduces a given grouping, using the
/// paper's maximum-spanning-tree rule (Sec. IV-C): within every group, keep
/// the top (n_cc - 1) heaviest edges that form a spanning forest of the
/// group's induced subgraph. Edge weight = unit-rate traffic.
std::vector<bool> mask_from_groups(const StreamGraph& g, const LoadProfile& profile,
                                   const std::vector<NodeId>& group_of_node);

}  // namespace sc::graph
