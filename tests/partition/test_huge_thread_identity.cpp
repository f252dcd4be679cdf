// Thread-count invariance of the Huge tier end to end: a tiny Huge graph
// (24-26K nodes, the tiled Setting::Huge topology) goes through
// streaming_read_csr -> streaming_allocate on 1-, 2- and 4-worker pools, for
// both the chunk-parallel ingest and the shard-parallel partitioner, and must
// produce the same placement every time. Shards are pinned, as the
// determinism contract requires (StreamingOptions::num_shards).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "partition/streaming.hpp"
#include "rl/rollout.hpp"

namespace sc::partition {
namespace {

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

std::uint64_t placement_hash(const std::string& path, const sim::ClusterSpec& spec,
                             ThreadPool& pool) {
  ThreadPool* prev = graph::set_ingest_pool(&pool);
  StreamingIngest ingest = streaming_read_csr(path);
  graph::set_ingest_pool(prev);

  StreamingOptions opts;
  opts.num_shards = 8;
  opts.undirected_degree = &ingest.undirected_degree;
  opts.pool = &pool;
  const sim::Placement placement = streaming_allocate(ingest.graph, spec, opts);
  EXPECT_EQ(placement.size(), ingest.graph.num_nodes());
  return fnv(placement);
}

TEST(HugeTier, PlacementIdenticalAcrossPoolSizes) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Huge);
  cfg.topology.min_nodes = 24'000;
  cfg.topology.max_nodes = 26'000;
  const auto graphs = gen::generate_graphs(cfg, 1, 0x5eed, "huge/");
  ASSERT_GE(graphs[0].num_nodes(), 24'000u);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sc_huge_thread_identity_" + std::to_string(::getpid()) + ".txt");
  graph::save_graphs(path.string(), graphs);
  const sim::ClusterSpec spec = rl::to_cluster_spec(cfg.workload);

  ThreadPool pool1(1), pool2(2), pool4(4);
  const std::uint64_t one = placement_hash(path.string(), spec, pool1);
  const std::uint64_t two = placement_hash(path.string(), spec, pool2);
  const std::uint64_t four = placement_hash(path.string(), spec, pool4);
  std::filesystem::remove(path);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace sc::partition
