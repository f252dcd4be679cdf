#include "graph/streaming.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
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

/// read_csr as a pool worker calls it: inside an InlineScope the reader never
/// fans out and takes the serial two-pass scan.
CsrGraph read_serial(const fs::path& path, StreamingReadStats* stats = nullptr) {
  const ThreadPool::InlineScope inline_scope;
  return read_csr(path.string(), stats);
}

/// Bit-exact CsrGraph comparison (slot layout included): the pipelined reader
/// must be indistinguishable from the serial scan, not merely isomorphic.
void expect_identical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.name(), b.name());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.ipt(v), b.ipt(v)) << "node " << v;
    ASSERT_EQ(a.selectivity(v), b.selectivity(v)) << "node " << v;
    ASSERT_EQ(a.out_offset(v), b.out_offset(v)) << "node " << v;
    const auto oa = a.out(v);
    const auto ob = b.out(v);
    for (std::size_t s = 0; s < oa.size(); ++s) {
      const std::uint64_t slot = a.out_offset(v) + s;
      ASSERT_EQ(oa[s], ob[s]) << "slot " << slot;
      ASSERT_EQ(a.payload(slot), b.payload(slot)) << "slot " << slot;
      ASSERT_EQ(a.rate_factor(slot), b.rate_factor(slot)) << "slot " << slot;
    }
  }
}

/// Runs read_csr (the serial reader when `serial`) and returns the thrown
/// message ("" when it succeeds).
std::string read_error(const fs::path& path, bool serial = false) {
  try {
    if (serial) {
      read_serial(path);
    } else {
      read_csr(path.string());
    }
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// SC_CHECK messages are '<file>:<line>: check failed: <cond> — <text>'; the
/// two readers throw from different call sites, so only <text> — the part a user
/// acts on — is required to match.
std::string error_text(const std::string& what) {
  const std::size_t pos = what.rfind(" — ");
  return pos == std::string::npos ? what : what.substr(pos);
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

  // Serial reader: two full passes over the file through the bounded buffer.
  StreamingReadStats serial;
  EXPECT_EQ(read_serial(path, &serial).num_nodes(), 5u);
  EXPECT_EQ(serial.passes, 2u);
  EXPECT_GT(serial.buffer_bytes, 0u);
  EXPECT_EQ(serial.bytes_read, 2 * file_size);
  EXPECT_EQ(serial.chunks, 0u);

  // Pipelined reader: a single pass, chunked through the parse queue.
  StreamingReadStats piped;
  EXPECT_EQ(read_csr(path.string(), &piped).num_nodes(), 5u);
  fs::remove(path);
  EXPECT_EQ(piped.passes, 1u);
  EXPECT_GT(piped.buffer_bytes, 0u);
  EXPECT_EQ(piped.bytes_read, file_size);
  EXPECT_GE(piped.chunks, 1u);
  EXPECT_GE(piped.queue_peak, 1u);
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

// The tentpole identity contract: at any chunk size and worker count, the
// pipelined reader produces a bit-identical CsrGraph to the serial scan on a
// generator-grown graph (varied degrees, float features, tiled structure).
TEST(StreamingIo, PipelinedMatchesSerialOnGeneratedGraph) {
  IngestConfigGuard guard;
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 600;
  cfg.topology.max_nodes = 800;
  const auto graphs = gen::generate_graphs(cfg, 1, 0xC0FFEEu, "ident/");
  const fs::path path = save_temp(graphs, "identity");

  const CsrGraph serial = read_serial(path);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    set_ingest_pool(&pool);
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{64}, std::size_t{4096}}) {
      set_ingest_chunk_bytes(chunk);
      StreamingReadStats stats;
      const CsrGraph piped = read_csr(path.string(), &stats);
      SCOPED_TRACE(::testing::Message() << "workers=" << workers << " chunk=" << chunk);
      expect_identical(serial, piped);
      EXPECT_EQ(stats.passes, 1u);
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

  const CsrGraph serial = read_serial(path);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    set_ingest_chunk_bytes(chunk);
    StreamingReadStats stats;
    const CsrGraph piped = read_csr(path.string(), &stats);
    SCOPED_TRACE(::testing::Message() << "chunk=" << chunk);
    expect_identical(serial, piped);
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

// A final line without a trailing newline must parse in both readers (the
// generator always terminates files, but hand-written inputs may not).
TEST(StreamingIo, HandlesMissingTrailingNewline) {
  IngestConfigGuard guard;
  const std::string text =
      "streamgraph t\nnodes 2\n1.0 1.0\n2.0 0.5\nedges 1\n0 1 8.0 1.0\nend";
  const fs::path path = write_temp(text, "nonewline");

  const CsrGraph serial = read_serial(path);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{5}}) {
    set_ingest_chunk_bytes(chunk);
    const CsrGraph piped = read_csr(path.string());
    SCOPED_TRACE(::testing::Message() << "chunk=" << chunk);
    expect_identical(serial, piped);
  }
  fs::remove(path);
}

// Content after the first graph's 'end' (including text that is not a valid
// graph) is ignored by both readers — read_csr reads the FIRST graph only, so
// parse workers speculating past 'end' must have their results discarded.
TEST(StreamingIo, IgnoresTrailingGarbageAfterEnd) {
  IngestConfigGuard guard;
  const std::string text =
      "streamgraph t\nnodes 1\n1.0 1.0\nedges 0\nend\n"
      "this is not a graph\n@#!$\n";
  const fs::path path = write_temp(text, "trailing");
  EXPECT_EQ(read_serial(path).num_nodes(), 1u);
  EXPECT_EQ(read_csr(path.string()).num_nodes(), 1u);
  fs::remove(path);
}

// Hostile/corrupt-input table: the reader must throw a named sc::Error before
// sizing anything by an untrusted header count. The count-vs-file-size bound
// is what distinguishes this reader from read_graph: a 30-byte file claiming
// a billion nodes dies immediately. Every case runs through the serial
// reader (read_csr inside an InlineScope), the pipelined reader at the
// default chunk size, and the pipelined reader at a 5-byte chunk size (every
// line stitched) — and all three must report the same error text, so the
// failing line never depends on the reader.
TEST(StreamingIo, MalformedInputTable) {
  IngestConfigGuard guard;
  struct Case {
    const char* what;
    std::string text;
  };
  const Case cases[] = {
      {"empty file", ""},
      {"wrong magic", "nonsense 3\n"},
      {"zero nodes", "streamgraph t\nnodes 0\nedges 0\nend\n"},
      {"count exceeds file size", "streamgraph t\nnodes 1000000\n"},
      {"count over ingest cap",
       "streamgraph t\nnodes 99999999999999999999\n"},
      {"negative node count", "streamgraph t\nnodes -5\n"},
      {"truncated node list", "streamgraph t\nnodes 2\n1.0 1.0\n"},
      {"negative node feature", "streamgraph t\nnodes 1\n-1.0 1.0\nedges 0\nend\n"},
      {"malformed node record", "streamgraph t\nnodes 1\nxyz 1.0\nedges 0\nend\n"},
      {"trailing garbage on record",
       "streamgraph t\nnodes 1\n1.0 1.0 junk\nedges 0\nend\n"},
      {"edge count exceeds file size",
       "streamgraph t\nnodes 1\n1.0 1.0\nedges 1000000\n"},
      {"negative edge endpoint",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n-1 1 1.0 1.0\nend\n"},
      {"endpoint out of range",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n0 7 1.0 1.0\nend\n"},
      {"self-loop edge",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n1 1 1.0 1.0\nend\n"},
      {"truncated edge list",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 2\n0 1 1.0 1.0\n"},
      {"missing end marker", "streamgraph t\nnodes 1\n1.0 1.0\nedges 0\n"},
      {"end before edge list done",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 2\n0 1 1.0 1.0\nend\n"},
      {"extra edge before end",
       "streamgraph t\nnodes 2\n1.0 1.0\n1.0 1.0\nedges 1\n0 1 1.0 1.0\n"
       "1 0 1.0 1.0\nend\n"},
      {"first of two bad records wins",
       "streamgraph t\nnodes 3\n1.0 1.0\nbad record\n1.0 1.0\nedges 1\n"
       "0 zzz 1.0 1.0\nend\n"},
  };
  for (const Case& c : cases) {
    const fs::path path = write_temp(c.text, "malformed");
    const std::string serial = read_error(path, true);
    EXPECT_FALSE(serial.empty()) << "case: " << c.what;

    const std::string piped = read_error(path);
    set_ingest_chunk_bytes(5);
    const std::string piped_tiny = read_error(path);
    set_ingest_chunk_bytes(0);
    fs::remove(path);

    EXPECT_EQ(error_text(serial), error_text(piped)) << "case: " << c.what;
    EXPECT_EQ(error_text(serial), error_text(piped_tiny)) << "case: " << c.what;
  }
}

// A line longer than the serial reader's 256 KiB ingest buffer is rejected
// with the same error by both readers, regardless of the pipelined chunk size.
TEST(StreamingIo, OversizedLineRejectedByBothArms) {
  IngestConfigGuard guard;
  std::string text = "streamgraph t\nnodes 1\n";
  text.append(std::string(300000, '1'));
  text += " 1.0\nedges 0\nend\n";
  const fs::path path = write_temp(text, "longline");

  const std::string serial = read_error(path, true);
  const std::string piped = read_error(path);
  fs::remove(path);

  EXPECT_NE(serial.find("exceeds the"), std::string::npos) << serial;
  EXPECT_EQ(error_text(serial), error_text(piped));
}

TEST(StreamingIo, MissingFileThrows) {
  EXPECT_THROW(read_serial("/nonexistent/path/graphs.txt"), Error);
  EXPECT_THROW(read_csr("/nonexistent/path/graphs.txt"), Error);
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
