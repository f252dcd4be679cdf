#include "partition/streaming.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "partition/allocate.hpp"
#include "partition/metrics.hpp"
#include "rl/rollout.hpp"

namespace sc::partition {
namespace {

namespace fs = std::filesystem;

/// Generates a Setting-shaped graph, round-trips it through the serialized
/// format, and returns the CSR view (what the streaming tier actually sees).
struct Fixture {
  graph::CsrGraph csr;
  graph::CsrLoad load;
  graph::StreamGraph stream;  // kept for in-memory comparisons
};

Fixture make_fixture(std::size_t lo, std::size_t hi, std::uint64_t seed) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Medium);
  cfg.topology.min_nodes = lo;
  cfg.topology.max_nodes = hi;
  const auto graphs = gen::generate_graphs(cfg, 1, seed, "spt/");
  // ctest runs each case as its own process, possibly in parallel; the path
  // must be unique per (test, process) or concurrent round-trips corrupt it.
  const fs::path path = fs::temp_directory_path() /
                        ("sc_stream_part_fixture_" + std::to_string(seed) + "_" +
                         std::to_string(::getpid()) + ".txt");
  graph::save_graphs(path.string(), graphs);
  Fixture f;
  f.csr = graph::read_csr(path.string());
  fs::remove(path);
  f.load = graph::compute_csr_load(f.csr);
  f.stream = graphs[0];
  return f;
}

TEST(StreamingPartition, LabelsAreValidAndBalanced) {
  const Fixture f = make_fixture(150, 200, 7);
  const std::size_t k = 8;
  StreamingStats stats;
  StreamingOptions opts;
  const auto part =
      streaming_partition(f.csr, f.load, std::vector<double>(k, 1.0), opts, &stats);
  ASSERT_EQ(part.size(), f.csr.num_nodes());
  for (const int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, static_cast<int>(k));
  }
  EXPECT_GT(stats.num_shards, 0u);
  EXPECT_GT(stats.coarse_nodes, 0u);
  // The coarse partition honors eps=0.10; fine-grained projection plus
  // refinement can shift at most one node's weight past the limit.
  EXPECT_LE(csr_imbalance(f.csr, f.load, part, k), 1.25);
}

TEST(StreamingPartition, DeterministicAcrossRuns) {
  const Fixture f = make_fixture(150, 200, 8);
  const std::vector<double> fractions(8, 1.0);
  StreamingOptions opts;
  opts.num_shards = 4;
  const auto a = streaming_partition(f.csr, f.load, fractions, opts);
  const auto b = streaming_partition(f.csr, f.load, fractions, opts);
  EXPECT_EQ(a, b);
}

TEST(StreamingPartition, IndependentOfThreadCount) {
  // At a fixed shard count the shard-parallel coarsening phase must be a
  // pure function of (graph, options): per-shard RNG seeds are precomputed
  // and all writes are disjoint, so 1, 2, and 8 workers agree bit-for-bit.
  const Fixture f = make_fixture(150, 200, 9);
  const std::vector<double> fractions(8, 1.0);
  std::vector<int> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    StreamingOptions opts;
    opts.num_shards = 4;
    opts.pool = &pool;
    const auto part = streaming_partition(f.csr, f.load, fractions, opts);
    if (reference.empty()) {
      reference = part;
    } else {
      EXPECT_EQ(part, reference) << "diverged at " << threads << " threads";
    }
  }
}

TEST(StreamingPartition, PipelinedArmBitIdenticalAcrossThreads) {
  // The speculate-then-commit refinement (and the rest of the pipeline) run
  // inside an InlineScope is the reference; every pool size must replay it
  // move for move.
  const Fixture f = make_fixture(250, 350, 21);
  const std::vector<double> fractions(8, 1.0);

  StreamingOptions opts;
  opts.num_shards = 4;
  opts.buffer_nodes = 32;  // force evictions so phase 1 is exercised hard
  StreamingStats serial_stats;
  std::vector<int> reference;
  {
    const ThreadPool::InlineScope inline_scope;
    reference = streaming_partition(f.csr, f.load, fractions, opts, &serial_stats);
  }
  EXPECT_GT(serial_stats.refine_spec_blocks, 0u);
  EXPECT_GT(serial_stats.eviction_batches, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    StreamingOptions popts = opts;
    popts.pool = &pool;
    StreamingStats stats;
    const auto part = streaming_partition(f.csr, f.load, fractions, popts, &stats);
    EXPECT_EQ(part, reference) << "diverged at " << threads << " threads";
    EXPECT_EQ(stats.refine_spec_blocks, serial_stats.refine_spec_blocks);
    EXPECT_EQ(stats.evictions, serial_stats.evictions);
    EXPECT_EQ(stats.eviction_batches, serial_stats.eviction_batches);
  }
}

TEST(StreamingPartition, OverlappedIngestMatchesSerialRead) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Medium);
  cfg.topology.min_nodes = 200;
  cfg.topology.max_nodes = 300;
  const auto graphs = gen::generate_graphs(cfg, 1, 23, "ovl/");
  const fs::path path = fs::temp_directory_path() /
                        ("sc_stream_overlap_" + std::to_string(::getpid()) + ".txt");
  graph::save_graphs(path.string(), graphs);

  // Reference: a plain read, then the degrees counted over the finished CSR.
  const graph::CsrGraph csr = graph::read_csr(path.string());
  std::vector<std::uint64_t> degree(csr.num_nodes(), 0);
  for (std::size_t v = 0; v < csr.num_nodes(); ++v) {
    const auto targets = csr.out(static_cast<graph::NodeId>(v));
    degree[v] += targets.size();
    for (const graph::NodeId d : targets) ++degree[d];
  }

  graph::set_ingest_chunk_bytes(512);  // many small batches through the queue
  const StreamingIngest piped = streaming_read_csr(path.string());
  graph::set_ingest_chunk_bytes(0);
  fs::remove(path);

  ASSERT_EQ(piped.graph.num_nodes(), csr.num_nodes());
  ASSERT_EQ(piped.graph.num_edges(), csr.num_edges());
  EXPECT_EQ(piped.undirected_degree, degree);
  EXPECT_GT(piped.degree_batches, 1u);
  EXPECT_GE(piped.degree_queue_peak, 1u);
  std::uint64_t total = 0;
  for (const std::uint64_t d : piped.undirected_degree) total += d;
  EXPECT_EQ(total, 2 * piped.graph.num_edges());

  // Feeding the accumulated degrees into the partitioner must not change
  // the result — it only skips the adjacency counting pass.
  const graph::CsrLoad load = graph::compute_csr_load(piped.graph);
  const std::vector<double> fractions(6, 1.0);
  StreamingOptions opts;
  opts.num_shards = 4;
  const auto counted = streaming_partition(piped.graph, load, fractions, opts);
  opts.undirected_degree = &piped.undirected_degree;
  const auto precomputed = streaming_partition(piped.graph, load, fractions, opts);
  EXPECT_EQ(counted, precomputed);
}

TEST(StreamingPartition, RejectsWrongDegreeVectorSize) {
  const Fixture f = make_fixture(150, 200, 24);
  std::vector<std::uint64_t> degree(f.csr.num_nodes() + 1, 0);
  StreamingOptions opts;
  opts.undirected_degree = &degree;
  EXPECT_THROW(streaming_partition(f.csr, f.load, {1.0, 1.0}, opts), Error);
}

TEST(StreamingPartition, SmallBufferForcesEvictionsButStaysValid) {
  const Fixture f = make_fixture(150, 200, 10);
  const std::size_t k = 8;
  StreamingOptions opts;
  opts.buffer_nodes = 16;
  StreamingStats stats;
  const auto part =
      streaming_partition(f.csr, f.load, std::vector<double>(k, 1.0), opts, &stats);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.buffer_peak, 17u);  // cap + the node being admitted
  for (const int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, static_cast<int>(k));
  }
}

TEST(StreamingPartition, CutWithinToleranceOfInMemory) {
  // Round-trip quality gate at a co-runnable scale: the streaming pipeline
  // (buffered shards -> parallel coarsening -> coarse partition -> refine)
  // must land within 2x of the in-memory multilevel partitioner's cut on the
  // same metric. At larger scale the streaming cut has been measured below
  // the in-memory one (0.81x at 116K nodes); the loose factor here absorbs
  // small-graph variance across seeds.
  const Fixture f = make_fixture(300, 400, 11);
  const sim::ClusterSpec spec = rl::to_cluster_spec(gen::setting_config(gen::Setting::Medium).workload);
  const auto streaming = streaming_allocate(f.csr, spec);
  const auto in_memory = metis_allocate(f.stream, spec);
  const double cut_s = csr_cut_weight(f.csr, f.load, streaming);
  const double cut_m = csr_cut_weight(f.csr, f.load, in_memory);
  EXPECT_LE(cut_s, 2.0 * cut_m + 1e-9);
  EXPECT_LE(csr_imbalance(f.csr, f.load, streaming, spec.num_devices), 1.25);
}

TEST(StreamingPartition, RefinementNeverDegradesTheCut) {
  const Fixture f = make_fixture(150, 200, 12);
  const std::vector<double> fractions(8, 1.0);
  StreamingOptions no_refine;
  no_refine.refine_passes = 0;
  StreamingOptions with_refine;
  with_refine.refine_passes = 8;
  const auto a = streaming_partition(f.csr, f.load, fractions, no_refine);
  const auto b = streaming_partition(f.csr, f.load, fractions, with_refine);
  EXPECT_LE(csr_cut_weight(f.csr, f.load, b), csr_cut_weight(f.csr, f.load, a) + 1e-9);
}

TEST(StreamingPartition, SinglePartIsTrivial) {
  const Fixture f = make_fixture(150, 200, 13);
  const auto part = streaming_partition(f.csr, f.load, {1.0});
  for (const int p : part) EXPECT_EQ(p, 0);
}

TEST(StreamingPartition, MorePartsThanNodes) {
  // A 4-node diamond over 16 parts: every label must stay in range and the
  // pipeline must not fault on shards smaller than the coarse target.
  const graph::CsrGraph c("tiny", {1.0f, 1.0f, 1.0f, 1.0f}, {1.0f, 1.0f, 1.0f, 1.0f},
                          {0, 2, 3, 4, 4}, {1, 2, 3, 3}, {1.0f, 1.0f, 1.0f, 1.0f},
                          {0.5f, 0.5f, 1.0f, 1.0f});
  const graph::CsrLoad load = graph::compute_csr_load(c);
  const auto part = streaming_partition(c, load, std::vector<double>(16, 1.0));
  ASSERT_EQ(part.size(), 4u);
  for (const int p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 16);
  }
}

TEST(StreamingPartition, RejectsMismatchedLoad) {
  const graph::CsrGraph c("tiny", {1.0f, 1.0f}, {1.0f, 1.0f}, {0, 1, 1}, {1}, {1.0f},
                          {1.0f});
  graph::CsrLoad load = graph::compute_csr_load(c);
  load.node_cpu.pop_back();
  EXPECT_THROW(streaming_partition(c, load, {1.0, 1.0}), Error);
}

TEST(StreamingPartition, CsrCutAndImbalanceAgreeWithHandComputation) {
  // Chain 0 -> 1 -> 2 with unit features: rate 1 everywhere, so node_cpu is
  // the ipt and each edge carries payload * rate = its payload.
  const graph::CsrGraph c("chain", {2.0f, 3.0f, 5.0f}, {1.0f, 1.0f, 1.0f}, {0, 1, 2, 2},
                          {1, 2}, {4.0f, 8.0f}, {1.0f, 1.0f});
  const graph::CsrLoad load = graph::compute_csr_load(c);
  const std::vector<int> part{0, 0, 1};
  EXPECT_DOUBLE_EQ(csr_cut_weight(c, load, part), 8.0);
  // Part weights: {2+3, 5} of 10 total over k=2 -> max 5 / share 5 = 1.0.
  EXPECT_DOUBLE_EQ(csr_imbalance(c, load, part, 2), 1.0);
  const std::vector<int> lopsided{0, 0, 0};
  EXPECT_DOUBLE_EQ(csr_cut_weight(c, load, lopsided), 0.0);
  EXPECT_DOUBLE_EQ(csr_imbalance(c, load, lopsided, 2), 2.0);
}

}  // namespace
}  // namespace sc::partition
