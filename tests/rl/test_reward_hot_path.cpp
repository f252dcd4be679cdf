// Property tests for the reward hot path's retained per-thread workspaces
// (contraction scratch, partition workspace, FM scratch) and the
// coarsen-only placer's partial edge selection. Rewards are compared as raw
// doubles — no tolerance — against cold workspaces and a full-sort oracle,
// across random graphs, mask densities, and workspaces that are forced to
// shrink and grow between calls on the same thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "graph/contraction.hpp"
#include "graph/union_find.hpp"
#include "rl/rollout.hpp"

namespace sc::rl {
namespace {

std::vector<graph::StreamGraph> random_graphs(std::size_t count, std::size_t min_nodes,
                                              std::size_t max_nodes, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = min_nodes;
  cfg.topology.max_nodes = max_nodes;
  cfg.workload.num_devices = 4;
  return gen::generate_graphs(cfg, count, seed);
}

sim::ClusterSpec spec() {
  gen::GeneratorConfig cfg;
  cfg.workload.num_devices = 4;
  return to_cluster_spec(cfg.workload);
}

gnn::EdgeMask random_mask(std::size_t edges, double density, Rng& rng) {
  gnn::EdgeMask mask(edges, 0);
  for (std::size_t e = 0; e < edges; ++e) mask[e] = rng.bernoulli(density) ? 1 : 0;
  return mask;
}

TEST(RewardHotPath, WorkspaceSurvivesShrinkAndGrowBetweenGraphs) {
  // The same thread_local workspaces serve every call on this thread; bounce
  // between a large and a small graph so each evaluation reuses buffers sized
  // for the other shape (stale tails, capacity handoff, frame reuse).
  const auto big = random_graphs(2, 80, 120, 402);
  const auto small = random_graphs(2, 6, 12, 403);
  const auto big_ctx = make_contexts(big, spec());
  const auto small_ctx = make_contexts(small, spec());
  const auto placer = metis_placer();
  const double densities[] = {0.2, 0.5, 0.8};

  // Interleave: big graph then small graph with buffers still warm from the
  // big one, then back. The reference repeats each evaluation on a fresh
  // thread, whose workspaces start cold.
  std::vector<double> warm, cold;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < big_ctx.size(); ++i) {
      Rng rng(11 * (i + 1) + round);
      for (const double d : densities) {
        const auto bm = random_mask(big_ctx[i].graph->edges().size(), d, rng);
        const auto sm = random_mask(small_ctx[i].graph->edges().size(), d, rng);
        warm.push_back(evaluate_mask(big_ctx[i], bm, placer).reward);
        warm.push_back(evaluate_mask(small_ctx[i], sm, placer).reward);
        std::thread([&] {
          cold.push_back(evaluate_mask(big_ctx[i], bm, placer).reward);
        }).join();
        std::thread([&] {
          cold.push_back(evaluate_mask(small_ctx[i], sm, placer).reward);
        }).join();
      }
    }
  }
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], cold[i]) << "evaluation " << i;
  }
}

/// Reference coarsen-only placement: a full stable sort of the coarse edges
/// by weight (descending; equal weights keep id order), union the heaviest
/// until at most `devices` components remain, then assign devices
/// round-robin over the components in first-seen order.
sim::Placement coarsen_only_oracle(const graph::Coarsening& c, std::size_t devices) {
  const std::size_t n = c.coarse.num_nodes();
  std::vector<int> coarse_device(n);
  std::vector<graph::EdgeId> order(c.coarse.num_edges());
  std::iota(order.begin(), order.end(), graph::EdgeId{0});
  std::stable_sort(order.begin(), order.end(), [&](graph::EdgeId a, graph::EdgeId b) {
    return c.coarse.edge(a).weight > c.coarse.edge(b).weight;
  });
  graph::UnionFind dsu(n);
  for (const graph::EdgeId e : order) {
    if (dsu.num_components() <= devices) break;
    dsu.unite(c.coarse.edge(e).a, c.coarse.edge(e).b);
  }
  std::vector<int> root_device(n, -1);
  int next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = dsu.find(v);
    if (root_device[root] < 0) root_device[root] = next++ % static_cast<int>(devices);
    coarse_device[v] = root_device[root];
  }
  return c.expand_placement(coarse_device);
}

TEST(RewardHotPath, CoarsenOnlyPlacerMatchesAcrossToggles) {
  // The coarsen-only placer selects the heaviest edges in doubling batches
  // instead of sorting them all; it must place exactly like the full sort.
  const auto graphs = random_graphs(3, 10, 30, 404);
  const auto contexts = make_contexts(graphs, spec());
  const auto placer = coarsen_only_placer();
  const double densities[] = {0.0, 0.1, 0.4, 0.7};

  for (std::size_t gi = 0; gi < contexts.size(); ++gi) {
    Rng rng(13 * (gi + 1));
    for (const double d : densities) {
      const auto mask = random_mask(contexts[gi].graph->edges().size(), d, rng);
      std::vector<bool> bits(mask.begin(), mask.end());
      const graph::Coarsening c = graph::contract(*contexts[gi].graph, contexts[gi].profile, bits);
      EXPECT_EQ(placer(c, contexts[gi].simulator),
                coarsen_only_oracle(c, contexts[gi].simulator.spec().num_devices))
          << "graph " << gi << " density " << d;
    }
  }
}

}  // namespace
}  // namespace sc::rl
