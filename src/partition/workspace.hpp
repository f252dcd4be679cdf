// PartitionWorkspace: per-thread reusable storage for the multilevel
// partitioner (DESIGN.md §5.4).
//
// A cache-miss reward evaluation runs the full coarsen / bisect / uncoarsen
// pipeline, which historically allocated fresh vectors and WeightedGraphs at
// every level, bisection subtree, and refinement pass. The workspace keeps
// all of that storage alive across calls: coarsening levels and bisection
// jobs are unique_ptr-held (stable addresses while the containers grow) and
// every buffer is reused via assign/clear, so after warm-up at a given graph
// shape the partitioner performs no steady-state heap allocations.
//
// Lock discipline (DESIGN.md §10): the retained workspaces are thread_local
// (see workspace.cpp) — no mutex, so no capability annotations; the streaming shard loops that borrow per-thread
// workspaces are additionally kept lock-free by the sc_analyze
// lock-in-shard-loop rule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/union_find.hpp"
#include "graph/weighted_graph.hpp"

namespace sc::partition {

/// Scratch for heavy_edge_matching_ws: the edge order, its shuffled rank
/// (used to replace the allocating stable_sort with an in-place sort over a
/// total order), and the resulting matching.
struct MatchScratch {
  std::vector<graph::EdgeId> order;
  std::vector<std::uint32_t> rank;
  std::vector<graph::NodeId> match;
};

/// Scratch of one bisection step (the thread that runs the step owns it).
struct BisectScratch {
  std::vector<int> part;   ///< winning bisection of the job's graph
  std::vector<int> trial;  ///< per-trial working partition
  std::vector<double> conn;
  std::vector<std::uint8_t> in0;
  /// Lazy max-heap of (connectivity, node) candidates for region growing.
  std::vector<std::pair<double, graph::NodeId>> grow_heap;
  std::vector<graph::NodeId> side0, side1;
};

/// One subtree of the initial recursive bisection: a graph to split into
/// the parts [frac_lo, frac_hi) of the fractions, labelled from label_base.
struct BisectJob {
  const graph::WeightedGraph* graph = nullptr;  ///< `owned`, or the root graph
  graph::WeightedGraph owned;                   ///< induced subgraph (non-root)
  std::vector<graph::NodeId> to_parent;         ///< job node -> root node
  std::size_t frac_lo = 0;
  std::size_t frac_hi = 0;
  int label_base = 0;
  Rng rng;  ///< the subtree's private split() stream
};

struct PartitionWorkspace {
  /// One retained coarsening level (heavy-edge matching contraction).
  struct Level {
    graph::WeightedGraph coarse;
    std::vector<graph::NodeId> map;  ///< fine node -> coarse node
  };

  std::vector<std::unique_ptr<Level>> levels;
  MatchScratch match;
  graph::EdgeDedupScratch dedup;
  std::vector<double> weight_buf;
  std::vector<graph::WeightedEdge> edge_buf;
  std::vector<graph::NodeId> to_sub;

  std::vector<int> part_a, part_b;  ///< uncoarsening double buffer
  std::vector<double> targets;
  std::vector<double> fractions;  ///< partition(g, k)'s uniform fractions
  std::vector<double> part_w;     ///< restart-scoring buffer
  std::vector<int> best_part;

  BisectScratch bisect;
  /// The bisection driver's current frontier and the children it emits,
  /// swapped after every level; slots are retained across calls.
  std::vector<std::unique_ptr<BisectJob>> frontier, children;

  /// Coarsen-only placer scratch (rl::coarsen_only_placer).
  std::vector<graph::EdgeId> edge_order;
  std::vector<int> root_device;
  std::vector<int> coarse_device;
  graph::UnionFind dsu;

  /// Level i, created on first use and retained afterwards.
  Level& level(std::size_t i);
  /// Grows `jobs` to at least `count` slots; new slots are retained.
  static void grow_jobs(std::vector<std::unique_ptr<BisectJob>>& jobs, std::size_t count);

  /// This thread's workspace (one workspace set per worker thread).
  static PartitionWorkspace& local();
};

}  // namespace sc::partition
