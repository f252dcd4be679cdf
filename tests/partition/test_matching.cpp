#include "partition/matching.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "common/rng.hpp"

namespace sc::partition {
namespace {

using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedGraph;

std::vector<NodeId> heavy_edge_matching(const WeightedGraph& g, Rng& rng) {
  MatchScratch scratch;
  heavy_edge_matching_ws(g, rng, scratch);
  return scratch.match;
}

struct Contraction {
  WeightedGraph coarse;
  std::vector<NodeId> map;
};

Contraction contract_matching(const WeightedGraph& g, const std::vector<NodeId>& match) {
  std::vector<double> weight_buf;
  std::vector<WeightedEdge> edge_buf;
  graph::EdgeDedupScratch dedup;
  Contraction c;
  contract_matching_ws(g, match, weight_buf, edge_buf, dedup, c.map, c.coarse);
  return c;
}

TEST(Matching, IsSymmetricAndComplete) {
  WeightedGraph g({1, 1, 1, 1, 1, 1},
                  {WeightedEdge{0, 1, 1}, WeightedEdge{1, 2, 1}, WeightedEdge{2, 3, 1},
                   WeightedEdge{3, 4, 1}, WeightedEdge{4, 5, 1}});
  Rng rng(1);
  const auto match = heavy_edge_matching(g, rng);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(match[v], kInvalidNode);
    EXPECT_EQ(match[match[v]], v);  // involution (v matched to itself allowed)
  }
}

TEST(Matching, PrefersHeavyEdges) {
  // Path 0 -1- 1 -100- 2 -1- 3: the heavy middle edge must be matched.
  WeightedGraph g({1, 1, 1, 1},
                  {WeightedEdge{0, 1, 1}, WeightedEdge{1, 2, 100}, WeightedEdge{2, 3, 1}});
  int heavy_matched = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const auto match = heavy_edge_matching(g, rng);
    if (match[1] == 2) ++heavy_matched;
  }
  EXPECT_GE(heavy_matched, 8);  // the heavy edge should almost always win
}

TEST(Matching, IsolatedNodesMatchThemselves) {
  WeightedGraph g({1, 1, 1}, {WeightedEdge{0, 1, 1}});
  Rng rng(3);
  const auto match = heavy_edge_matching(g, rng);
  EXPECT_EQ(match[2], 2u);
}

TEST(ContractMatching, HalvesChain) {
  WeightedGraph g({1, 1, 1, 1},
                  {WeightedEdge{0, 1, 5}, WeightedEdge{1, 2, 1}, WeightedEdge{2, 3, 5}});
  const std::vector<NodeId> match{1, 0, 3, 2};
  const Contraction c = contract_matching(g, match);
  EXPECT_EQ(c.coarse.num_nodes(), 2u);
  EXPECT_EQ(c.coarse.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(c.coarse.edge(0).weight, 1.0);
  EXPECT_DOUBLE_EQ(c.coarse.node_weight(0), 2.0);
}

TEST(ContractMatching, PreservesTotalNodeWeight) {
  WeightedGraph g({1, 2, 3, 4, 5},
                  {WeightedEdge{0, 1, 1}, WeightedEdge{1, 2, 1}, WeightedEdge{3, 4, 1}});
  Rng rng(5);
  const auto match = heavy_edge_matching(g, rng);
  const Contraction c = contract_matching(g, match);
  EXPECT_DOUBLE_EQ(c.coarse.total_node_weight(), g.total_node_weight());
}

TEST(ContractMatching, InconsistentMatchingThrows) {
  WeightedGraph g({1, 1, 1}, {WeightedEdge{0, 1, 1}});
  EXPECT_THROW(contract_matching(g, {1, 2, 0}), Error);
  EXPECT_THROW(contract_matching(g, {1, 0}), Error);
}

}  // namespace
}  // namespace sc::partition
