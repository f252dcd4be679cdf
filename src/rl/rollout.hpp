// Episode rollout machinery: per-graph cached context and mask evaluation.
//
// A rollout turns an edge-collapse mask (the RL action) into a reward:
//   mask -> contract -> place the coarse graph -> expand -> simulate ->
//   relative throughput T(Gy)/I(Gx) in (0, 1].
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gen/generator.hpp"
#include "gnn/features.hpp"
#include "gnn/policy.hpp"
#include "graph/contraction.hpp"
#include "partition/allocate.hpp"
#include "sim/fluid.hpp"

namespace sc::rl {

class EpisodeCache;  // episode_cache.hpp

/// Converts a generator workload into the matching simulation cluster.
sim::ClusterSpec to_cluster_spec(const gen::WorkloadConfig& wl);

/// Places a coarsened graph onto devices and expands to the original graph.
using CoarsePlacer =
    std::function<sim::Placement(const graph::Coarsening&, const sim::FluidSimulator&)>;

/// Built-in placers for the paper's framework variants.
CoarsePlacer metis_placer(const partition::PartitionOptions& opts = {});
CoarsePlacer metis_oracle_placer(const partition::PartitionOptions& opts = {});
/// Table II "Coarsen-only": no partitioning model. If the coarse graph still
/// has more nodes than devices, the heaviest coarse edges are merged until
/// it fits; coarse nodes then map one-to-one onto devices.
CoarsePlacer coarsen_only_placer();

/// Everything rollouts need for one graph, computed once.
/// Borrows the graph; it must outlive the context (keep the dataset alive).
struct GraphContext {
  GraphContext(const graph::StreamGraph& graph, const sim::ClusterSpec& spec);
  GraphContext(graph::StreamGraph&&, const sim::ClusterSpec&) = delete;

  const graph::StreamGraph* graph;
  graph::LoadProfile profile;
  gnn::GraphFeatures features;
  sim::FluidSimulator simulator;
  /// Memoizes evaluate_mask results per mask (see episode_cache.hpp); shared
  /// so contexts stay copyable and the cache survives context vectors being
  /// rebuilt from the same graphs.
  std::shared_ptr<EpisodeCache> cache;
};

/// Builds contexts for a whole dataset split.
std::vector<GraphContext> make_contexts(const std::vector<graph::StreamGraph>& graphs,
                                        const sim::ClusterSpec& spec);

/// One evaluated action.
struct Episode {
  gnn::EdgeMask mask;
  double reward = 0.0;        ///< relative throughput in (0, 1]
  double compression = 1.0;   ///< |V| / |V'|
};

/// Contracts `mask` for `ctx` into a thread-local workspace without
/// allocating after warm-up (DESIGN.md §5.4); the returned reference stays
/// valid until the next contract_mask on the calling thread. Exposed so
/// callers outside the rollout loop (the serving tier) reuse the same
/// retained scratch instead of re-allocating per request.
const graph::Coarsening& contract_mask(const GraphContext& ctx, const gnn::EdgeMask& mask);

/// The three-argument form that bench/e2e/workload_train.cpp still calls;
/// `storage` is not touched. Remove it once that caller passes two arguments.
inline const graph::Coarsening& contract_mask(const GraphContext& ctx,
                                              const gnn::EdgeMask& mask,
                                              graph::Coarsening& /*storage*/) {
  return contract_mask(ctx, mask);
}

/// Evaluates a mask end to end (contract, place, simulate).
Episode evaluate_mask(const GraphContext& ctx, const gnn::EdgeMask& mask,
                      const CoarsePlacer& placer);

/// Memoizing variant: consults ctx.cache first and records fresh
/// evaluations. Thread-safe; concurrent misses on the same mask evaluate
/// redundantly but insert identical results. Cached and uncached results are
/// bit-for-bit identical (the whole pipeline is deterministic in the mask).
Episode evaluate_mask_cached(const GraphContext& ctx, const gnn::EdgeMask& mask,
                             const CoarsePlacer& placer);

/// Full inference: greedy mask from the policy, then place. Returns the
/// fine-grained placement.
sim::Placement allocate_with_policy(const gnn::CoarseningPolicy& policy,
                                    const GraphContext& ctx, const CoarsePlacer& placer);

/// Best-of-k inference: evaluates the greedy mask plus `samples` stochastic
/// masks through the simulator and returns the highest-throughput placement.
/// Deployment-legal whenever the simulator is available offline (the paper's
/// setting); trades ~k× inference cost for extra quality.
///
/// Candidates are scored through ctx.cache (see evaluate_mask_cached) and
/// only the winning mask is contracted and placed again, which assumes the
/// placer is deterministic — true for all built-in placers. A repeated mask
/// (e.g. the greedy mask across calls) costs a hash lookup, not a simulation.
sim::Placement allocate_with_policy_best_of(const gnn::CoarseningPolicy& policy,
                                            const GraphContext& ctx,
                                            const CoarsePlacer& placer,
                                            std::size_t samples, Rng& rng);

}  // namespace sc::rl
