// MultilevelPartitioner: a from-scratch Karypis–Kumar-style multilevel k-way
// graph partitioner (the library's METIS substitute).
//
//   coarsen   — repeated heavy-edge matching + contraction
//   initial   — recursive bisection via greedy region growing + FM refinement
//   uncoarsen — label projection with greedy k-way boundary refinement
//
// Node weights are balanced (max part <= (1+eps)*avg) while the weighted
// edge cut — cross-device traffic for stream graphs — is minimised.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace sc {
class ThreadPool;
}

namespace sc::partition {

/// The independent subtrees of the initial recursive bisection fan out over
/// a thread pool level by level through ThreadPool::parallel_for (DESIGN.md
/// §5.5), which runs them on the calling thread from a pool worker, inside
/// a ThreadPool::InlineScope or on a one-worker pool. Results are
/// independent of the pool size and of which thread runs a subtree, because
/// every subtree consumes a private split() RNG stream.
///
/// Test hook: overrides the pool used for parallel bisection (nullptr =
/// ThreadPool::global()). Returns the previous override.
ThreadPool* set_parallel_bisection_pool(ThreadPool* pool);

struct PartitionOptions {
  double imbalance_eps = 0.10;      ///< allowed part weight overshoot
  std::size_t coarsen_until = 0;    ///< stop coarsening at this size; 0 = auto
  std::size_t bisection_trials = 4; ///< greedy-growing restarts per bisection
  std::size_t refine_passes = 8;
  std::size_t restarts = 1;         ///< full multilevel restarts; best cut kept
  std::uint64_t seed = 1;
};

class MultilevelPartitioner {
public:
  explicit MultilevelPartitioner(PartitionOptions opts = {}) : opts_(opts) {}

  /// Partitions g into k parts (labels 0..k-1). Parts may be empty when the
  /// graph has fewer nodes than k.
  std::vector<int> partition(const graph::WeightedGraph& g, std::size_t k) const;

  /// Heterogeneous variant: part q receives a share of the node weight
  /// proportional to fractions[q] (positive, normalised internally). Used
  /// for clusters whose devices have unequal compute capacity.
  std::vector<int> partition(const graph::WeightedGraph& g,
                             const std::vector<double>& fractions) const;

  /// Multilevel coarsening only: repeatedly matches and contracts until at
  /// most `target_nodes` remain (or no progress). Returns fine->group labels.
  std::vector<graph::NodeId> coarsen_to(const graph::WeightedGraph& g,
                                        std::size_t target_nodes) const;

  const PartitionOptions& options() const { return opts_; }

private:
  PartitionOptions opts_;
};

}  // namespace sc::partition
