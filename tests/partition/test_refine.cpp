#include "partition/refine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "partition/metrics.hpp"

namespace sc::partition {
namespace {

using graph::WeightedEdge;
using graph::WeightedGraph;

// Two unit-weight cliques of 4, connected by a single light bridge.
WeightedGraph two_cliques(double bridge = 0.1) {
  std::vector<WeightedEdge> edges;
  for (graph::NodeId i = 0; i < 4; ++i) {
    for (graph::NodeId j = i + 1; j < 4; ++j) {
      edges.push_back({i, j, 1.0});
      edges.push_back({static_cast<graph::NodeId>(i + 4),
                       static_cast<graph::NodeId>(j + 4), 1.0});
    }
  }
  edges.push_back({3, 4, bridge});
  return WeightedGraph(std::vector<double>(8, 1.0), edges);
}

TEST(FmRefine, RecoversNaturalBisection) {
  const WeightedGraph g = two_cliques();
  // Start from a bad split that cuts both cliques.
  std::vector<int> part{0, 1, 0, 1, 0, 1, 0, 1};
  const double cut = fm_refine_bisection(g, part, 4.0, 0.05);
  EXPECT_NEAR(cut, 0.1, 1e-9);  // only the bridge remains cut
  EXPECT_EQ(part[0], part[1]);
  EXPECT_EQ(part[4], part[7]);
  EXPECT_NE(part[0], part[4]);
}

TEST(FmRefine, NeverWorsensCut) {
  const WeightedGraph g = two_cliques();
  std::vector<int> part{0, 0, 0, 0, 1, 1, 1, 1};  // already optimal
  const double before = cut_weight(g, part);
  const double after = fm_refine_bisection(g, part, 4.0, 0.05);
  EXPECT_LE(after, before + 1e-12);
}

TEST(FmRefine, ReturnedCutMatchesRecount) {
  const WeightedGraph g = two_cliques(2.5);
  std::vector<int> part{0, 1, 1, 0, 1, 0, 0, 1};
  const double cut = fm_refine_bisection(g, part, 4.0, 0.1);
  EXPECT_NEAR(cut, cut_weight(g, part), 1e-9);
}

TEST(FmRefine, RespectsBalanceCap) {
  const WeightedGraph g = two_cliques(100.0);  // heavy bridge tempts merging all
  std::vector<int> part{0, 0, 0, 0, 1, 1, 1, 1};
  fm_refine_bisection(g, part, 4.0, 0.05);
  const auto w = part_weights(g, part, 2);
  EXPECT_LE(w[0], 4.0 * 1.05 + 1e-9);
  EXPECT_LE(w[1], 4.0 * 1.05 + 1e-9);
}

TEST(KwayRefine, ImprovesBalancedRandomPartition) {
  const WeightedGraph g = two_cliques();
  Rng rng(7);
  // Balanced random start: refinement must never worsen the cut from here.
  std::vector<graph::NodeId> ids{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(ids);
  std::vector<int> part(8);
  for (std::size_t i = 0; i < 8; ++i) part[ids[i]] = i < 4 ? 0 : 1;
  const double before = cut_weight(g, part);
  const double after = greedy_kway_refine(g, part, 2, 0.2);
  EXPECT_LE(after, before + 1e-12);
  EXPECT_NEAR(after, cut_weight(g, part), 1e-9);
}

TEST(KwayRefine, RestoresBalanceEvenAtCutCost) {
  const WeightedGraph g = two_cliques();
  // 7-vs-1 split: heavily imbalanced; the refiner must evict nodes from the
  // overweight part even though that cuts clique-internal edges.
  std::vector<int> part{0, 0, 0, 0, 0, 0, 0, 1};
  greedy_kway_refine(g, part, 2, 0.2);
  EXPECT_LE(imbalance(g, part, 2), 1.2 + 1e-9);
}

TEST(KwayRefine, FourWayKeepsBalanceBound) {
  // 16 nodes in a ring.
  std::vector<WeightedEdge> edges;
  for (graph::NodeId i = 0; i < 16; ++i) {
    edges.push_back({i, static_cast<graph::NodeId>((i + 1) % 16), 1.0});
  }
  const WeightedGraph g(std::vector<double>(16, 1.0), edges);
  std::vector<int> part(16);
  for (std::size_t i = 0; i < 16; ++i) part[i] = static_cast<int>(i % 4);
  greedy_kway_refine(g, part, 4, 0.25);
  EXPECT_LE(imbalance(g, part, 4), 1.25 + 1e-9);
}

TEST(KwayRefine, SinglePartIsNoop) {
  const WeightedGraph g = two_cliques();
  std::vector<int> part(8, 0);
  const double cut = greedy_kway_refine(g, part, 1, 0.1);
  EXPECT_DOUBLE_EQ(cut, 0.0);
}

}  // namespace
}  // namespace sc::partition
