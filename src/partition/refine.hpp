// Partition refinement: Fiduccia–Mattheyses bisection refinement with
// rollback, and greedy k-way boundary refinement.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace sc::partition {

/// One FM pass (repeated up to `max_passes`) on a 2-way partition.
/// `target0` is the desired weight of part 0; moves keep each side within
/// (1 + eps) of its target. Mutates `part` in place; returns the final cut.
double fm_refine_bisection(const graph::WeightedGraph& g, std::vector<int>& part,
                           double target0, double eps, std::size_t max_passes = 8);

/// Performance hint: pre-flattens `g`'s adjacency into this thread's FM
/// scratch so consecutive fm_refine_bisection() calls on the SAME graph
/// object (e.g. the bisection trial loop) skip the rebuild. The caller must
/// re-bind after mutating or replacing the graph; calls with a graph that is
/// not the bound one are still correct (they build their own adjacency).
void fm_refine_bind(const graph::WeightedGraph& g);

/// Greedy boundary refinement on a k-way partition under the balance
/// constraint max part weight <= (1 + eps) * total / k. Returns the final cut.
double greedy_kway_refine(const graph::WeightedGraph& g, std::vector<int>& part,
                          std::size_t k, double eps, std::size_t max_passes = 8);

/// Heterogeneous variant: part q may hold at most (1 + eps) * targets[q]
/// weight (targets in absolute node-weight units; they should sum to the
/// total node weight). Returns the final cut.
double greedy_kway_refine(const graph::WeightedGraph& g, std::vector<int>& part,
                          const std::vector<double>& targets, double eps,
                          std::size_t max_passes = 8);

}  // namespace sc::partition
