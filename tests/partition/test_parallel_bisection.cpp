// Thread-count invariance of parallel recursive bisection (DESIGN.md §5.5).
//
// Fanning subtrees out over a pool is an execution strategy only: every
// subtree of the bisection tree consumes a private split() RNG stream
// derived from its path to the root, so the partition — and the draw
// sequence of every stream — is identical whether the subtrees run on one
// thread (inside a ThreadPool::InlineScope or on a 1-worker pool), on a
// 2-worker pool, or on an 8-worker pool. These tests pin that contract down
// with exact (==) comparisons on the resulting labels.
#include "partition/mlpart.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/weighted_graph.hpp"
#include "partition/metrics.hpp"

namespace sc::partition {
namespace {

using graph::WeightedEdge;
using graph::WeightedGraph;

WeightedGraph random_graph(std::size_t n, std::size_t extra_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.5 + rng.uniform();
  std::vector<WeightedEdge> edges;
  // Spanning chain keeps the graph connected; extra random edges add lumps.
  for (std::size_t v = 1; v < n; ++v) {
    edges.push_back({static_cast<graph::NodeId>(v - 1), static_cast<graph::NodeId>(v),
                     0.1 + rng.uniform()});
  }
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const auto a = static_cast<graph::NodeId>(rng.index(n));
    const auto b = static_cast<graph::NodeId>(rng.index(n));
    if (a == b) continue;
    edges.push_back({a, b, 0.1 + rng.uniform()});
  }
  return WeightedGraph(std::move(weights), edges);
}

/// Runs partition() with the parallel-bisection pool overridden; restores the
/// previous override before returning.
std::vector<int> partition_with_pool(const WeightedGraph& g, std::size_t k,
                                     ThreadPool* pool) {
  ThreadPool* prev = set_parallel_bisection_pool(pool);
  PartitionOptions opts;
  opts.seed = 7;
  const std::vector<int> part = MultilevelPartitioner(opts).partition(g, k);
  set_parallel_bisection_pool(prev);
  return part;
}

TEST(ParallelBisection, ThreadCountInvariant) {
  const WeightedGraph g = random_graph(300, 450, 17);
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const std::size_t k : {2u, 5u, 8u, 16u}) {
    const std::vector<int> serial = partition_with_pool(g, k, &pool1);
    const std::vector<int> two = partition_with_pool(g, k, &pool2);
    const std::vector<int> eight = partition_with_pool(g, k, &pool8);
    EXPECT_EQ(serial, two) << "k=" << k;
    EXPECT_EQ(serial, eight) << "k=" << k;
  }
}

TEST(ParallelBisection, ToggleDoesNotChangeResults) {
  // The same partitioner on a 4-worker pool (subtrees fan out) and inside an
  // InlineScope (every subtree on the calling thread), with restarts.
  const WeightedGraph g = random_graph(240, 300, 29);
  ThreadPool pool(4);
  ThreadPool* prev_pool = set_parallel_bisection_pool(&pool);
  PartitionOptions opts;
  opts.seed = 3;
  opts.restarts = 2;
  const MultilevelPartitioner p(opts);

  const std::vector<int> fanned = p.partition(g, 6);
  std::vector<int> serial;
  {
    const ThreadPool::InlineScope inline_scope;
    serial = p.partition(g, 6);
  }
  set_parallel_bisection_pool(prev_pool);

  EXPECT_EQ(fanned, serial);
}

TEST(ParallelBisection, DeterministicAcrossRepeats) {
  const WeightedGraph g = random_graph(120, 150, 5);
  ThreadPool pool(8);
  const std::vector<int> first = partition_with_pool(g, 9, &pool);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(first, partition_with_pool(g, 9, &pool));
  }
}

TEST(ParallelBisection, DegenerateAndTinyCases) {
  // Graph smaller than k exercises the round-robin fallback inside the
  // parallel driver; k = 1 never enters it.
  const WeightedGraph tiny({1.0, 1.0, 1.0},
                           {WeightedEdge{0, 1, 1.0}, WeightedEdge{1, 2, 1.0}});
  ThreadPool pool2(2), pool8(8);
  const std::vector<int> a = partition_with_pool(tiny, 8, &pool2);
  const std::vector<int> b = partition_with_pool(tiny, 8, &pool8);
  EXPECT_EQ(a, b);
  for (const int q : a) {
    EXPECT_GE(q, 0);
    EXPECT_LT(q, 8);
  }
  const std::vector<int> one = partition_with_pool(tiny, 1, &pool8);
  EXPECT_EQ(one, (std::vector<int>{0, 0, 0}));
}

TEST(ParallelBisection, QualityUnchangedOnPlantedClusters) {
  // Sanity: fanning out must not degrade cut quality on an easy instance.
  std::vector<WeightedEdge> edges;
  const std::size_t size_per = 8;
  const auto id = [&](std::size_t c, std::size_t i) {
    return static_cast<graph::NodeId>(c * size_per + i);
  };
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < size_per; ++i) {
      for (std::size_t j = i + 1; j < size_per; ++j) edges.push_back({id(c, i), id(c, j), 1.0});
    }
    if (c + 1 < 4) edges.push_back({id(c, size_per - 1), id(c + 1, 0), 0.01});
  }
  const WeightedGraph g(std::vector<double>(4 * size_per, 1.0), edges);
  ThreadPool pool(8);
  const std::vector<int> part = partition_with_pool(g, 4, &pool);
  EXPECT_LE(cut_weight(g, part), 0.03 + 1e-9);
  EXPECT_LE(imbalance(g, part, 4), 1.10 + 1e-9);
}

}  // namespace
}  // namespace sc::partition
