// Concurrency stress for the ingest -> degree-accumulator queue
// (partition::streaming_read_csr). Runs under TSan in CI (job tsan-stress,
// ctest -R Stress): the ingest committer produces edge batches into a
// common::BoundedQueue while a background thread accumulates undirected
// degrees, so every push/pop/close/join interleaving is exercised here —
// including the producer finishing early, the consumer draining a backlog,
// and a mid-stream abort tearing the pipeline down while batches are in
// flight.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "partition/streaming.hpp"

namespace sc::partition {
namespace {

namespace fs = std::filesystem;

/// Restores the default ingest chunk size on scope exit.
struct ChunkGuard {
  ~ChunkGuard() { graph::set_ingest_chunk_bytes(0); }
};

fs::path write_fixture(std::size_t lo, std::size_t hi, std::uint64_t seed,
                       const std::string& tag) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Medium);
  cfg.topology.min_nodes = lo;
  cfg.topology.max_nodes = hi;
  const auto graphs = gen::generate_graphs(cfg, 1, seed, "sis/");
  const fs::path path = fs::temp_directory_path() /
                        ("sc_ingest_stress_" + tag + "_" + std::to_string(::getpid()) + ".txt");
  graph::save_graphs(path.string(), graphs);
  return path;
}

std::uint64_t degree_sum(const std::vector<std::uint64_t>& degree) {
  std::uint64_t total = 0;
  for (const std::uint64_t d : degree) total += d;
  return total;
}

TEST(StreamingIngestStress, ProducerFinishesBeforeConsumerDrains) {
  // A tiny graph makes the committer finish (and close the queue) while the
  // accumulator may still hold undrained batches; repeat to hit different
  // close/drain interleavings.
  const fs::path path = write_fixture(40, 60, 0x51u, "early");
  ChunkGuard guard;
  for (int round = 0; round < 20; ++round) {
    const StreamingIngest got = streaming_read_csr(path.string());
    EXPECT_EQ(degree_sum(got.undirected_degree), 2 * got.graph.num_edges());
  }
  fs::remove(path);
}

TEST(StreamingIngestStress, ConsumerDrainsBackloggedQueue) {
  // Tiny ingest chunks flood the bounded queue with many small batches, so
  // the producer's full-queue spin path and the consumer's batched drain
  // both run; the commutative counts must match the serial reader's exactly.
  const fs::path path = write_fixture(300, 400, 0x52u, "backlog");
  ChunkGuard guard;

  StreamingIngest serial;
  {
    const ThreadPool::InlineScope inline_scope;  // read_csr reads serially
    serial = streaming_read_csr(path.string());
  }

  graph::set_ingest_chunk_bytes(256);
  for (int round = 0; round < 5; ++round) {
    const StreamingIngest piped = streaming_read_csr(path.string());
    EXPECT_EQ(piped.undirected_degree, serial.undirected_degree);
    EXPECT_GT(piped.degree_batches, 1u);
  }
  fs::remove(path);
}

TEST(StreamingIngestStress, AbortMidStreamTearsDownCleanly) {
  // Truncate the file in the middle of the edge list: ingest throws after
  // batches are already in flight, and the sink's teardown must close the
  // queue, join the accumulator, and surface the error — every round.
  const fs::path full = write_fixture(200, 300, 0x53u, "abort");
  std::string text;
  {
    std::ifstream in(full);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t edges_at = text.find("\nedges ");
  ASSERT_NE(edges_at, std::string::npos);
  const std::size_t cut = text.find('\n', (edges_at + text.size()) / 2);
  ASSERT_NE(cut, std::string::npos);
  const fs::path truncated =
      fs::temp_directory_path() /
      ("sc_ingest_stress_abort_cut_" + std::to_string(::getpid()) + ".txt");
  {
    std::ofstream out(truncated);
    out << text.substr(0, cut + 1);
    out.flush();
    SC_CHECK(out.good(), "failed to write truncated fixture " << truncated);
  }
  fs::remove(full);

  ChunkGuard guard;
  graph::set_ingest_chunk_bytes(256);
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(streaming_read_csr(truncated.string()), Error);
  }
  fs::remove(truncated);
}

}  // namespace
}  // namespace sc::partition
