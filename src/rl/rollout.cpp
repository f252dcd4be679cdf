#include "rl/rollout.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/profile.hpp"
#include "nn/tensor.hpp"
#include "partition/workspace.hpp"
#include "rl/episode_cache.hpp"

namespace sc::rl {

sim::ClusterSpec to_cluster_spec(const gen::WorkloadConfig& wl) {
  sim::ClusterSpec spec;
  spec.num_devices = wl.num_devices;
  spec.device_mips = wl.device_mips;
  spec.bandwidth = wl.bandwidth;
  spec.source_rate = wl.source_rate;
  return spec;
}

namespace {

/// Per-thread storage for the reward hot path: the mask bit buffer and the
/// Coarsening that contract_into() overwrites in place (DESIGN.md §5.4).
struct RewardWorkspace {
  std::vector<bool> bits;
  graph::Coarsening coarsening;

  static RewardWorkspace& local() {
    thread_local RewardWorkspace ws;
    return ws;
  }
};

sim::Placement place_timed(const CoarsePlacer& placer, const graph::Coarsening& c,
                           const sim::FluidSimulator& simulator) {
  prof::ScopedTimer timer(prof::Phase::Partition);
  return placer(c, simulator);
}

/// coarsen_only_placer's body: merges the heaviest remaining coarse edges
/// until the graph fits on the devices (the "merge until |V'| = |D|" rule
/// from Table II), visiting edges in (weight desc, id asc) order. Instead of
/// a full edge sort it selects the heaviest edges in doubling batches with
/// nth_element over the workspace's order buffer and sorts only each batch.
// sc-lint: hot-path
sim::Placement coarsen_only_place(const graph::Coarsening& c,
                                  const sim::FluidSimulator& simulator) {
  const std::size_t devices = simulator.spec().num_devices;
  const std::size_t n = c.coarse.num_nodes();
  partition::PartitionWorkspace& ws = partition::PartitionWorkspace::local();

  ws.coarse_device.resize(n);
  if (n <= devices) {
    std::iota(ws.coarse_device.begin(), ws.coarse_device.end(), 0);
    // The expanded fine placement is this function's result object; the one
    // allocation per rollout is the output, not hidden churn.
    return c.expand_placement(ws.coarse_device);  // sc-lint: allow(transitive-alloc)
  }

  const std::size_t m = c.coarse.num_edges();
  ws.edge_order.resize(m);
  std::iota(ws.edge_order.begin(), ws.edge_order.end(), graph::EdgeId{0});
  const auto heavier = [&](graph::EdgeId a, graph::EdgeId b) {
    if (c.coarse.edge(a).weight != c.coarse.edge(b).weight) {
      return c.coarse.edge(a).weight > c.coarse.edge(b).weight;
    }
    return a < b;
  };

  ws.dsu.reset(n);
  // Merging stops after at most n - devices unions, so usually only a small
  // prefix of the sorted edge order is ever consumed. Select it lazily:
  // partial-select a batch, sort just that batch, and only touch the next
  // (doubled) batch if the merge budget is not yet exhausted.
  std::size_t begin = 0;
  std::size_t batch = std::min(m, std::max<std::size_t>(64, 2 * (n - devices)));
  bool done = false;
  while (!done && begin < m) {
    const std::size_t end = std::min(m, begin + batch);
    if (end < m) {
      std::nth_element(ws.edge_order.begin() + static_cast<std::ptrdiff_t>(begin),
                       ws.edge_order.begin() + static_cast<std::ptrdiff_t>(end),
                       ws.edge_order.end(), heavier);
    }
    std::sort(ws.edge_order.begin() + static_cast<std::ptrdiff_t>(begin),
              ws.edge_order.begin() + static_cast<std::ptrdiff_t>(end), heavier);
    for (std::size_t i = begin; i < end; ++i) {
      if (ws.dsu.num_components() <= devices) {
        done = true;
        break;
      }
      const graph::WeightedEdge& e = c.coarse.edge(ws.edge_order[i]);
      ws.dsu.unite(e.a, e.b);
    }
    begin = end;
    batch *= 2;
  }

  // Disconnected leftovers: merge smallest components arbitrarily.
  // Assign devices round-robin over roots (over-assignments wrap).
  ws.root_device.assign(n, -1);
  int next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = ws.dsu.find(v);
    if (ws.root_device[root] < 0) {
      ws.root_device[root] = next % static_cast<int>(devices);
      ++next;
    }
    ws.coarse_device[v] = ws.root_device[root];
  }
  // As above: the expanded placement is the rollout's result object.
  return c.expand_placement(ws.coarse_device);  // sc-lint: allow(transitive-alloc)
}

}  // namespace

const graph::Coarsening& contract_mask(const GraphContext& ctx, const gnn::EdgeMask& mask) {
  prof::ScopedTimer timer(prof::Phase::Contract);
  SC_CHECK(mask.size() == ctx.graph->num_edges(), "mask size does not match edge count");
  RewardWorkspace& ws = RewardWorkspace::local();
  ws.bits.resize(mask.size());
  for (std::size_t e = 0; e < mask.size(); ++e) ws.bits[e] = mask[e] != 0;
  graph::contract_into(*ctx.graph, ctx.profile, ws.bits, graph::contraction_scratch::local(),
                       ws.coarsening);
  return ws.coarsening;
}

CoarsePlacer metis_placer(const partition::PartitionOptions& opts) {
  return [opts](const graph::Coarsening& c, const sim::FluidSimulator& simulator) {
    const auto coarse_p =
        partition::metis_allocate_coarse(c.coarse, simulator.spec(), opts);
    return c.expand_placement(coarse_p);
  };
}

CoarsePlacer metis_oracle_placer(const partition::PartitionOptions& opts) {
  return [opts](const graph::Coarsening& c, const sim::FluidSimulator& simulator) {
    return partition::metis_oracle_allocate_coarse(c, simulator, opts);
  };
}

CoarsePlacer coarsen_only_placer() { return coarsen_only_place; }

GraphContext::GraphContext(const graph::StreamGraph& g, const sim::ClusterSpec& spec)
    : graph(&g),
      profile(graph::compute_load_profile(g)),
      features(gnn::extract_features(g, profile, spec)),
      simulator(g, spec, profile),
      cache(std::make_shared<EpisodeCache>()) {}

std::vector<GraphContext> make_contexts(const std::vector<graph::StreamGraph>& graphs,
                                        const sim::ClusterSpec& spec) {
  std::vector<GraphContext> ctxs;
  ctxs.reserve(graphs.size());
  for (const auto& g : graphs) ctxs.emplace_back(g, spec);
  return ctxs;
}

Episode evaluate_mask(const GraphContext& ctx, const gnn::EdgeMask& mask,
                      const CoarsePlacer& placer) {
  const graph::Coarsening& c = contract_mask(ctx, mask);
  const sim::Placement p = place_timed(placer, c, ctx.simulator);
  Episode ep;
  ep.mask = mask;
  {
    prof::ScopedTimer timer(prof::Phase::Simulate);
    ep.reward = ctx.simulator.relative_throughput(p);
  }
  ep.compression = c.compression_ratio();
  return ep;
}

Episode evaluate_mask_cached(const GraphContext& ctx, const gnn::EdgeMask& mask,
                             const CoarsePlacer& placer) {
  const std::uint64_t key = hash_mask(mask);
  if (auto hit = ctx.cache->lookup(key, mask)) return *std::move(hit);
  Episode ep = evaluate_mask(ctx, mask, placer);
  ctx.cache->insert(key, ep);
  return ep;
}

sim::Placement allocate_with_policy(const gnn::CoarseningPolicy& policy,
                                    const GraphContext& ctx, const CoarsePlacer& placer) {
  nn::NoGradGuard no_grad;
  const nn::Tensor logit_tensor = policy.logits(ctx.features);
  const gnn::EdgeMask mask = policy.greedy(logit_tensor.value());
  const graph::Coarsening& c = contract_mask(ctx, mask);
  return placer(c, ctx.simulator);
}

sim::Placement allocate_with_policy_best_of(const gnn::CoarseningPolicy& policy,
                                            const GraphContext& ctx,
                                            const CoarsePlacer& placer,
                                            std::size_t samples, Rng& rng) {
  nn::NoGradGuard no_grad;
  const nn::Tensor logit_tensor = policy.logits(ctx.features);

  std::vector<gnn::EdgeMask> masks;
  masks.push_back(policy.greedy(logit_tensor.value()));
  for (std::size_t s = 0; s < samples; ++s) {
    masks.push_back(policy.sample(logit_tensor.value(), rng));
  }

  // Score every candidate through the context's episode cache (reward is
  // relative throughput — absolute throughput divided by a per-context
  // constant — so the argmax and its strict-greater/first-wins tie-breaking
  // are unchanged), then contract and place only the winner. Repeated masks
  // (the greedy mask in particular, and any mask seen during training on
  // this context) cost a hash lookup instead of a simulation.
  std::size_t best_i = 0;
  double best_reward = -1.0;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const Episode ep = evaluate_mask_cached(ctx, masks[i], placer);
    if (ep.reward > best_reward) {
      best_reward = ep.reward;
      best_i = i;
    }
  }
  const graph::Coarsening& c = contract_mask(ctx, masks[best_i]);
  return placer(c, ctx.simulator);
}

}  // namespace sc::rl
