// Golden placement fingerprints for the partitioning layers.
//
// Each test runs one public entry point on a fixed, generated input and
// compares an FNV-1a hash of the resulting label vector (and, for the
// refiners, of the returned cut) against a committed value. The values pin
// the exact output of the production path, so an execution-strategy change
// (thread count, scratch reuse, a rewritten inner loop) must leave them
// unchanged; a change that is meant to move a placement must update the
// constant and say why.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/contraction.hpp"
#include "graph/io.hpp"
#include "graph/rates.hpp"
#include "graph/streaming.hpp"
#include "graph/weighted_graph.hpp"
#include "partition/mlpart.hpp"
#include "partition/refine.hpp"
#include "partition/streaming.hpp"
#include "rl/rollout.hpp"

namespace sc::partition {
namespace {

using graph::WeightedEdge;
using graph::WeightedGraph;

std::uint64_t fnv(const std::vector<int>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int label : labels) {
    auto x = static_cast<std::uint32_t>(label);
    for (int i = 0; i < 4; ++i) {
      h ^= x & 0xffU;
      h *= 1099511628211ULL;
      x >>= 8;
    }
  }
  return h;
}

std::uint64_t fnv_with_cut(const std::vector<int>& labels, double cut) {
  const auto bits = std::bit_cast<std::uint64_t>(cut);
  return fnv(labels) ^ (bits * 1099511628211ULL);
}

/// A connected random graph: a spanning chain plus random chords.
WeightedGraph random_graph(std::size_t n, std::size_t extra_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.5 + rng.uniform();
  std::vector<WeightedEdge> edges;
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

std::vector<int> random_labels(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> part(n);
  for (int& p : part) p = static_cast<int>(rng.index(k));
  return part;
}

TEST(GoldenFingerprint, MultilevelPartitionWithRestarts) {
  const WeightedGraph g = random_graph(2000, 3000, 11);
  PartitionOptions opts;
  opts.seed = 5;
  opts.restarts = 3;
  const MultilevelPartitioner p(opts);
  EXPECT_EQ(fnv(p.partition(g, 2)), 3407795212461288899ULL) << "k=2";
  EXPECT_EQ(fnv(p.partition(g, 8)), 5291864301583863522ULL) << "k=8";
  EXPECT_EQ(fnv(p.partition(g, 64)), 186952222388309189ULL) << "k=64";
}

TEST(GoldenFingerprint, MultilevelPartitionHeterogeneousFractions) {
  const WeightedGraph g = random_graph(900, 1400, 23);
  PartitionOptions opts;
  opts.seed = 9;
  opts.restarts = 2;
  const std::vector<double> fractions = {3.0, 1.0, 2.0, 1.0, 1.0};
  EXPECT_EQ(fnv(MultilevelPartitioner(opts).partition(g, fractions)), 318851070988532084ULL);
}

TEST(GoldenFingerprint, CoarsenTo) {
  const WeightedGraph g = random_graph(1500, 2500, 31);
  PartitionOptions opts;
  opts.seed = 4;
  const std::vector<graph::NodeId> groups = MultilevelPartitioner(opts).coarsen_to(g, 40);
  const std::vector<int> labels(groups.begin(), groups.end());
  EXPECT_EQ(fnv(labels), 16850447999017274858ULL);
}

TEST(GoldenFingerprint, FmRefineBisection) {
  const WeightedGraph g = random_graph(600, 900, 41);
  std::vector<int> part = random_labels(g.num_nodes(), 2, 43);
  const double cut = fm_refine_bisection(g, part, g.total_node_weight() / 2.0, 0.05);
  EXPECT_EQ(fnv_with_cut(part, cut), 10156901984457557839ULL);
}

TEST(GoldenFingerprint, GreedyKwayRefine) {
  const WeightedGraph g = random_graph(800, 1600, 47);
  std::vector<int> part = random_labels(g.num_nodes(), 6, 53);
  const double cut = greedy_kway_refine(g, part, 6, 0.10);
  EXPECT_EQ(fnv_with_cut(part, cut), 5547892331332726811ULL);

  const double total = g.total_node_weight();
  const std::vector<double> targets = {total * 0.4, total * 0.3, total * 0.2, total * 0.1};
  std::vector<int> hetero = random_labels(g.num_nodes(), 4, 59);
  const double hetero_cut = greedy_kway_refine(g, hetero, targets, 0.10);
  EXPECT_EQ(fnv_with_cut(hetero, hetero_cut), 5520309661007072078ULL);
}

TEST(GoldenFingerprint, CoarsenOnlyPlacer) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Medium);
  const std::vector<graph::StreamGraph> graphs = gen::generate_graphs(cfg, 3, 61, "golden/");
  const sim::ClusterSpec spec = rl::to_cluster_spec(cfg.workload);
  const rl::CoarsePlacer placer = rl::coarsen_only_placer();
  std::uint64_t h = 0;
  for (const graph::StreamGraph& g : graphs) {
    const rl::GraphContext ctx(g, spec);
    // Collapse about a third of the edges so the coarse graph still has more
    // nodes than devices and the placer must merge.
    Rng rng(67);
    std::vector<bool> mask(g.num_edges());
    for (std::size_t e = 0; e < mask.size(); ++e) mask[e] = rng.uniform() < 0.35;
    const graph::Coarsening c = graph::contract(g, ctx.profile, mask);
    ASSERT_GT(c.num_coarse_nodes(), spec.num_devices);
    h = h * 31 + fnv(placer(c, ctx.simulator));
  }
  EXPECT_EQ(h, 13320004751296686258ULL);
}

TEST(GoldenFingerprint, StreamingAllocateOnTiledGraph) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Huge);
  cfg.topology.min_nodes = 6'000;
  cfg.topology.max_nodes = 7'000;
  const auto graphs = gen::generate_graphs(cfg, 1, 71, "golden/");
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sc_golden_stream_" + std::to_string(::getpid()) + ".txt");
  graph::save_graphs(path.string(), graphs);
  StreamingIngest ingest = streaming_read_csr(path.string());
  std::filesystem::remove(path);

  StreamingOptions opts;
  opts.num_shards = 4;
  opts.undirected_degree = &ingest.undirected_degree;
  const sim::ClusterSpec spec = rl::to_cluster_spec(cfg.workload);
  EXPECT_EQ(fnv(streaming_allocate(ingest.graph, spec, opts)), 1902633570352937521ULL);
}

}  // namespace
}  // namespace sc::partition
