#include "graph/streaming.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "graph/io.hpp"
#include "graph/rates.hpp"
#include "graph/stream_graph.hpp"
#include "../testutil.hpp"

namespace sc::graph {
namespace {

namespace fs = std::filesystem;

/// Temp path unique to this test process (ctest runs suites concurrently).
fs::path temp_path(const char* tag) {
  return fs::temp_directory_path() /
         (std::string("sc_csr_") + tag + "_" + std::to_string(::getpid()) + ".txt");
}

/// Writes `text` to a fresh temp file and returns its path.
fs::path write_temp(const std::string& text, const char* tag) {
  const fs::path path = temp_path(tag);
  std::ofstream os(path, std::ios::binary);
  os << text;
  os.flush();
  SC_CHECK(os.good(), "failed to write temp file " << path);
  return path;
}

fs::path save_temp(const std::vector<StreamGraph>& graphs, const char* tag) {
  const fs::path path = temp_path(tag);
  save_graphs(path.string(), graphs);
  return path;
}

/// RAII restore of every ingest knob (chunk size, pool override).
class IngestConfigGuard {
public:
  IngestConfigGuard() = default;
  ~IngestConfigGuard() {
    set_ingest_chunk_bytes(0);
    set_ingest_pool(nullptr);
  }
  IngestConfigGuard(const IngestConfigGuard&) = delete;
  IngestConfigGuard& operator=(const IngestConfigGuard&) = delete;
};

/// read_csr as a pool worker calls it: inside an InlineScope no parse loop
/// runs beside the committer, so the committer parses every chunk itself.
CsrGraph read_inline(const fs::path& path, StreamingReadStats* stats = nullptr) {
  const ThreadPool::InlineScope inline_scope;
  return read_csr(path.string(), stats);
}

/// The reader-independent oracle: graph::read_graph's StreamGraph of the
/// same file.
StreamGraph read_oracle(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return read_graph(is);
}

/// Bit-exact comparison with the oracle, slot layout included: CSR slots
/// group edges by source in file order, so walking the StreamGraph's edge
/// list with a per-source cursor lines the two layouts up. Features are
/// parsed from the same text, so the float narrowing of each must match.
void expect_matches_oracle(const CsrGraph& c, const StreamGraph& g) {
  ASSERT_EQ(c.num_nodes(), g.num_nodes());
  ASSERT_EQ(c.num_edges(), g.num_edges());
  EXPECT_EQ(c.name(), g.name());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(c.ipt(v), static_cast<float>(g.op(v).ipt)) << "node " << v;
    ASSERT_EQ(c.selectivity(v), static_cast<float>(g.op(v).selectivity)) << "node " << v;
  }
  std::vector<std::uint64_t> cursor(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) cursor[v] = c.out_offset(v);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& ch = g.edge(e);
    const std::uint64_t slot = cursor[ch.src]++;
    ASSERT_LT(slot, c.out_offset(ch.src) + c.out_degree(ch.src)) << "edge " << e;
    ASSERT_EQ(c.out(ch.src)[slot - c.out_offset(ch.src)], ch.dst) << "edge " << e;
    ASSERT_EQ(c.payload(slot), static_cast<float>(ch.payload)) << "edge " << e;
    ASSERT_EQ(c.rate_factor(slot), static_cast<float>(ch.rate_factor)) << "edge " << e;
  }
}

/// The message read_csr throws ("" when it succeeds).
std::string read_error(const fs::path& path) {
  try {
    read_csr(path.string());
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// The message read_csr throws on each of the three ways a read can run:
/// parse loops on the default pool, 5-byte chunks (every line stitched), and
/// inside an InlineScope (the committer parses every chunk).
std::vector<std::string> read_errors_three_ways(const fs::path& path) {
  std::vector<std::string> out;
  out.push_back(read_error(path));
  set_ingest_chunk_bytes(5);
  out.push_back(read_error(path));
  set_ingest_chunk_bytes(0);
  const ThreadPool::InlineScope inline_scope;
  out.push_back(read_error(path));
  return out;
}

TEST(StreamingIo, CsrMatchesStreamGraph) {
  const StreamGraph g = test::make_diamond(2.5, 3.75);
  const fs::path path = save_temp({g}, "diamond");
  const CsrGraph c = read_csr(path.string());
  fs::remove(path);

  ASSERT_EQ(c.num_nodes(), g.num_nodes());
  ASSERT_EQ(c.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FLOAT_EQ(c.ipt(v), static_cast<float>(g.op(v).ipt));
    EXPECT_FLOAT_EQ(c.selectivity(v), static_cast<float>(g.op(v).selectivity));
  }
  // CSR slots group edges by source in file order; walk the StreamGraph's
  // edge list with a per-source cursor to line the two layouts up.
  std::vector<std::uint64_t> cursor(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) cursor[v] = c.out_offset(v);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& ch = g.edge(e);
    const std::uint64_t slot = cursor[ch.src]++;
    EXPECT_EQ(c.out(ch.src)[slot - c.out_offset(ch.src)], ch.dst);
    EXPECT_FLOAT_EQ(c.payload(slot), static_cast<float>(ch.payload));
    EXPECT_FLOAT_EQ(c.rate_factor(slot), static_cast<float>(ch.rate_factor));
  }
}

TEST(StreamingIo, CsrLoadMatchesLoadProfile) {
  const StreamGraph g = test::make_diamond(2.0, 4.0);
  const LoadProfile profile = compute_load_profile(g);
  const fs::path path = save_temp({g}, "load");
  const CsrGraph c = read_csr(path.string());
  fs::remove(path);

  const CsrLoad load = compute_csr_load(c);
  ASSERT_EQ(load.node_cpu.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(load.node_cpu[v], profile.node_cpu[v],
                1e-4 * (1.0 + profile.node_cpu[v]));
  }
  EXPECT_NEAR(load.total_cpu, profile.total_cpu, 1e-4 * (1.0 + profile.total_cpu));
  const double total_traffic = [&] {
    double t = 0.0;
    for (const double x : profile.edge_traffic) t += x;
    return t;
  }();
  EXPECT_NEAR(load.total_traffic, total_traffic, 1e-4 * (1.0 + total_traffic));
}

TEST(StreamingIo, ReadsFirstGraphOnly) {
  const fs::path path = save_temp({test::make_chain(3), test::make_diamond()}, "multi");
  const CsrGraph c = read_csr(path.string());
  fs::remove(path);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.num_edges(), 2u);
}

TEST(StreamingIo, ReportsIngestStats) {
  IngestConfigGuard guard;
  const fs::path path = save_temp({test::make_chain(5)}, "stats");
  const std::uint64_t file_size = fs::file_size(path);

  // One pass, chunked through the parse queue, whether parse loops run
  // beside the committer or the committer parses every chunk.
  StreamingReadStats piped;
  EXPECT_EQ(read_csr(path.string(), &piped).num_nodes(), 5u);
  StreamingReadStats inlined;
  EXPECT_EQ(read_inline(path, &inlined).num_nodes(), 5u);
  fs::remove(path);
  for (const StreamingReadStats& stats : {piped, inlined}) {
    EXPECT_GT(stats.buffer_bytes, 0u);
    EXPECT_EQ(stats.bytes_read, file_size);
    EXPECT_GE(stats.chunks, 1u);
    EXPECT_GE(stats.queue_peak, 1u);
  }
}

TEST(StreamingIo, HandlesCrlfAndComments) {
  const fs::path path = write_temp(
      "# header\r\n\r\nstreamgraph t\r\nnodes 2\r\n1.0 1.0\r\n2.0 0.5\r\n"
      "edges 1\r\n0 1 8.0 1.0\r\nend\r\n",
      "crlf");
  const CsrGraph c = read_csr(path.string());
  fs::remove(path);
  ASSERT_EQ(c.num_nodes(), 2u);
  ASSERT_EQ(c.num_edges(), 1u);
  EXPECT_FLOAT_EQ(c.ipt(1), 2.0f);
  EXPECT_FLOAT_EQ(c.payload(0), 8.0f);
}

// The identity contract: at any chunk size and worker count, and with the
// committer parsing every chunk itself, the reader produces exactly the
// oracle's graph on a generator-grown graph (varied degrees, float
// features, tiled structure).
TEST(StreamingIo, PipelinedMatchesSerialOnGeneratedGraph) {
  IngestConfigGuard guard;
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 600;
  cfg.topology.max_nodes = 800;
  const auto graphs = gen::generate_graphs(cfg, 1, 0xC0FFEEu, "ident/");
  const fs::path path = save_temp(graphs, "identity");
  const StreamGraph oracle = read_oracle(path);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    set_ingest_pool(&pool);
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{64}, std::size_t{4096}}) {
      set_ingest_chunk_bytes(chunk);
      SCOPED_TRACE(::testing::Message() << "workers=" << workers << " chunk=" << chunk);
      expect_matches_oracle(read_csr(path.string()), oracle);
      expect_matches_oracle(read_inline(path), oracle);
    }
    set_ingest_pool(nullptr);
  }
  fs::remove(path);
}

// Chunk sizes far below one record force every line to span a chunk
// boundary; the reader must stitch them back together losslessly.
TEST(StreamingIo, TinyChunksStitchAcrossBoundaries) {
  IngestConfigGuard guard;
  const std::string text =
      "streamgraph stitch\nnodes 3\n1.5 1.0\n2.5 0.5\n3.5 0.25\n"
      "edges 2\n0 1 8.0 1.0\n1 2 16.0 0.5\nend\n";
  const fs::path path = write_temp(text, "stitch");
  const StreamGraph oracle = read_oracle(path);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    set_ingest_chunk_bytes(chunk);
    StreamingReadStats stats;
    const CsrGraph piped = read_csr(path.string(), &stats);
    SCOPED_TRACE(::testing::Message() << "chunk=" << chunk);
    expect_matches_oracle(piped, oracle);
    // A 1-byte chunk assembles each line inside the read-ahead loop (every
    // fill ends exactly at a newline), so only larger chunks leave a partial
    // line behind to stitch.
    if (chunk > 1) {
      EXPECT_GT(stats.stitches, 0u);
    }
    EXPECT_GT(stats.chunks, 1u);
  }
  fs::remove(path);
}

// A final line without a trailing newline must parse (the generator always
// terminates files, but hand-written inputs may not).
TEST(StreamingIo, HandlesMissingTrailingNewline) {
  IngestConfigGuard guard;
  const std::string text =
      "streamgraph t\nnodes 2\n1.0 1.0\n2.0 0.5\nedges 1\n0 1 8.0 1.0\nend";
  const fs::path path = write_temp(text, "nonewline");
  const StreamGraph oracle = read_oracle(path);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{5}}) {
    set_ingest_chunk_bytes(chunk);
    SCOPED_TRACE(::testing::Message() << "chunk=" << chunk);
    expect_matches_oracle(read_csr(path.string()), oracle);
    expect_matches_oracle(read_inline(path), oracle);
  }
  fs::remove(path);
}

// A read finishes with no parse loop at all. Every worker of the ingest
// pool is held, so the parse loops queued behind them never start before
// the read ends; the committer must parse every chunk itself. A watchdog
// turns a committer that waits on the held workers into a failure instead
// of a hang.
TEST(StreamingIo, ReadCompletesWhileEveryWorkerIsHeld) {
  IngestConfigGuard guard;
  constexpr auto kTimeout = std::chrono::seconds(10);
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 300;
  cfg.topology.max_nodes = 400;
  const auto graphs = gen::generate_graphs(cfg, 1, 0xFEEDu, "held/");
  const fs::path path = save_temp(graphs, "held");
  const StreamGraph oracle = read_oracle(path);

  ThreadPool pool(4);
  set_ingest_pool(&pool);
  set_ingest_chunk_bytes(512);  // dozens of chunks, more than the window
  test::WorkerGate gate(pool);
  std::promise<void> finished;
  std::atomic<bool> timed_out{false};
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  std::thread watchdog([&timed_out, &gate, deadline, done = finished.get_future()] {
    if (done.wait_until(deadline) != std::future_status::ready) {
      timed_out.store(true);
      gate.open();
    }
  });
  StreamingReadStats stats;
  const CsrGraph c = read_csr(path.string(), &stats);
  finished.set_value();
  watchdog.join();
  gate.release();
  set_ingest_pool(nullptr);
  fs::remove(path);

  EXPECT_FALSE(timed_out.load()) << "the read waited on held pool workers";
  EXPECT_GT(stats.chunks, 8u);
  expect_matches_oracle(c, oracle);
}

// Content after the first graph's 'end' (including text that is not a valid
// graph) is ignored — read_csr reads the FIRST graph only, so parsers
// speculating past 'end' must have their results discarded.
TEST(StreamingIo, IgnoresTrailingGarbageAfterEnd) {
  IngestConfigGuard guard;
  const std::string text =
      "streamgraph t\nnodes 1\n1.0 1.0\nedges 0\nend\n"
      "this is not a graph\n@#!$\n";
  const fs::path path = write_temp(text, "trailing");
  EXPECT_EQ(read_csr(path.string()).num_nodes(), 1u);
  EXPECT_EQ(read_inline(path).num_nodes(), 1u);
  fs::remove(path);
}

// Hostile/corrupt-input table: the reader must throw a named sc::Error before
// sizing anything by an untrusted header count. The count-vs-file-size bound
// is what distinguishes this reader from read_graph: a 30-byte file claiming
// a billion nodes dies immediately. Every case names the message it must fail
// with, and fails with it whichever thread parses which chunk: on the default
// pool, with 5-byte chunks (every line stitched), and inside an InlineScope.
TEST(StreamingIo, MalformedInputTable) {
  IngestConfigGuard guard;
  struct Case {
    const char* what;
    std::string text;
    const char* message;
  };
  const Case cases[] = {
      {"empty file", "", "unexpected EOF: expected 'streamgraph'"},
      {"wrong magic", "nonsense 3\n", "expected 'streamgraph', got 'nonsense 3'"},
      {"zero nodes", "streamgraph t\nnodes 0\nedges 0\nend\n",
       "stream graph must have at least one node"},
      {"count exceeds file size", "streamgraph t\nnodes 1000000\n",
       "nodes count 1000000 exceeds what a"},
      {"count over ingest cap", "streamgraph t\nnodes 99999999999999999999\n",
       "nodes overflows in line"},
      {"negative node count", "streamgraph t\nnodes -5\n", "malformed nodes in line"},
      {"truncated node list", "streamgraph t\nnodes 2\n1.0 1.0\n",
       "unexpected EOF in node list: got 1 of 2 nodes"},
      {"negative node feature", "streamgraph t\nnodes 1\n-1.0 1.0\nedges 0\nend\n",
       "negative node feature in line '-1.0 1.0'"},
      {"malformed node record", "streamgraph t\nnodes 1\nxyz 1.0\nedges 0\nend\n",
       "malformed node ipt in line 'xyz 1.0'"},
      {"trailing garbage on record",
       "streamgraph t\nnodes 1\n1.0 1.0 junk\nedges 0\nend\n",
       "trailing garbage after node record"},
      {"edge count exceeds file size",
       "streamgraph t\nnodes 1\n1.0 1.0\nedges 1000000\n",
       "edges count 1000000 exceeds what a"},
      {"negative edge endpoint",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n-1 1 1.0 1.0\nend\n",
       "malformed edge source in line '-1 1 1.0 1.0'"},
      {"endpoint out of range",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n0 7 1.0 1.0\nend\n",
       "edge endpoint out of range in line '0 7 1.0 1.0'"},
      {"self-loop edge",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n1 1 1.0 1.0\nend\n",
       "self-loop edge in line '1 1 1.0 1.0'"},
      {"truncated edge list",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 2\n0 1 1.0 1.0\n",
       "unexpected EOF in edge list: got 1 of 2 edges"},
      {"missing end marker", "streamgraph t\nnodes 1\n1.0 1.0\nedges 0\n",
       "expected 'end' terminating graph"},
      {"end before edge list done",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 2\n0 1 1.0 1.0\nend\n",
       "malformed edge source in line 'end'"},
      {"extra edge before end",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n0 1 1.0 1.0\n"
       "1 0 1.0 1.0\nend\n",
       "expected 'end' terminating graph"},
      {"first of two bad records wins",
       "streamgraph t\nnodes 3\n1.0 1.0\nbad record\n1.0 1.0\nedges 1\n"
       "0 zzz 1.0 1.0\nend\n",
       "malformed node ipt in line 'bad record'"},
  };
  for (const Case& c : cases) {
    const fs::path path = write_temp(c.text, "malformed");
    const std::vector<std::string> errors = read_errors_three_ways(path);
    fs::remove(path);
    for (const std::string& error : errors) {
      EXPECT_NE(error.find(c.message), std::string::npos)
          << "case: " << c.what << "\n  got: '" << error << "'";
    }
  }
}

// A line longer than the 256 KiB ingest bound is rejected, regardless of
// the chunk size and of which thread parses.
TEST(StreamingIo, OversizedLineRejectedByBothArms) {
  IngestConfigGuard guard;
  std::string text = "streamgraph t\nnodes 1\n";
  text.append(std::string(300000, '1'));
  text += " 1.0\nedges 0\nend\n";
  const fs::path path = write_temp(text, "longline");
  const std::vector<std::string> errors = read_errors_three_ways(path);
  fs::remove(path);
  for (const std::string& error : errors) {
    EXPECT_NE(error.find("line exceeds the 262144-byte ingest buffer"), std::string::npos)
        << error;
  }
}

TEST(StreamingIo, MissingFileThrows) {
  EXPECT_THROW(read_csr("/nonexistent/path/graphs.txt"), Error);
  EXPECT_THROW(read_inline("/nonexistent/path/graphs.txt"), Error);
}

TEST(StreamingIo, CsrLoadRejectsCycles) {
  // 0 -> 1 -> 2 -> 1 is not ingestable via read_csr (the generator never
  // emits cycles) but the CsrGraph constructor accepts it; the load
  // propagation must reject it rather than looping or underflowing.
  const CsrGraph c("cyclic", {1.0f, 1.0f, 1.0f}, {1.0f, 1.0f, 1.0f}, {0, 1, 2, 3},
                   {1, 2, 1}, {1.0f, 1.0f, 1.0f}, {1.0f, 1.0f, 1.0f});
  EXPECT_THROW(compute_csr_load(c), Error);
}

}  // namespace
}  // namespace sc::graph
