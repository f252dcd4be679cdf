// Streaming/out-of-core graph tier (DESIGN.md §9): a compressed CSR
// representation plus a buffered reader that ingests serialized stream
// graphs in bounded batches, never materializing a full StreamGraph.
//
// Footprint: CsrGraph stores ~16 bytes per node (two float features plus a
// 64-bit offset) and ~12 bytes per edge (target id + two float features) —
// roughly 5x smaller than the StreamGraph/GraphBuilder path, which keeps
// double features, a Channel array with explicit endpoints, and a second
// (incoming) adjacency structure. At the `Huge` generator setting (1M+
// nodes) the difference is what keeps peak RSS bounded.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace sc {
class ThreadPool;
}  // namespace sc

namespace sc::graph {

/// Immutable compressed out-CSR stream graph. Edge slot `s` of node `v`
/// covers `[out_offsets(v), out_offsets(v+1))`; `dst`, `payload`, and
/// `rate_factor` are indexed by slot. Features are float: serialized inputs
/// are ingested for partitioning, where float precision is ample and the
/// narrower arrays halve the footprint.
class CsrGraph {
public:
  CsrGraph() = default;

  /// Builds from slot-parallel arrays; `out_offsets` must be a prefix-sum
  /// over `dst` (size n+1, out_offsets[n] == dst.size()). Validates shape,
  /// offset monotonicity, and target ranges with SC_CHECK.
  CsrGraph(std::string name, std::vector<float> ipt, std::vector<float> selectivity,
           std::vector<std::uint64_t> out_offsets, std::vector<NodeId> dst,
           std::vector<float> payload, std::vector<float> rate_factor);

  std::size_t num_nodes() const { return ipt_.empty() ? 0 : ipt_.size(); }
  std::size_t num_edges() const { return dst_.size(); }
  bool empty() const { return ipt_.empty(); }

  float ipt(NodeId v) const { return ipt_[v]; }
  float selectivity(NodeId v) const { return selectivity_[v]; }

  std::uint64_t out_offset(NodeId v) const { return out_offsets_[v]; }
  std::size_t out_degree(NodeId v) const {
    return static_cast<std::size_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  /// Targets of v's outgoing edges (slot-parallel with payloads/rate factors).
  std::span<const NodeId> out(NodeId v) const {
    return {dst_.data() + out_offsets_[v], dst_.data() + out_offsets_[v + 1]};
  }
  float payload(std::uint64_t slot) const { return payload_[slot]; }
  float rate_factor(std::uint64_t slot) const { return rate_factor_[slot]; }

  const std::string& name() const { return name_; }

  /// Approximate resident footprint of the CSR arrays, in bytes.
  std::size_t footprint_bytes() const;

private:
  std::vector<float> ipt_;                  // n
  std::vector<float> selectivity_;          // n
  std::vector<std::uint64_t> out_offsets_;  // n + 1
  std::vector<NodeId> dst_;                 // m
  std::vector<float> payload_;              // m
  std::vector<float> rate_factor_;          // m
  std::string name_;
};

/// Test knob: byte size of one pipelined ingest chunk (0 restores the
/// default, which equals the serial reader's 256 KiB buffer). Tiny chunks
/// force every line to stitch across a chunk boundary, which is exactly what
/// the chunked-scanner edge-case tests want to exercise.
void set_ingest_chunk_bytes(std::size_t bytes);

/// Test knob: pool used by the pipelined reader for parse workers and the
/// CSR scatter (nullptr restores ThreadPool::global()). Returns the previous
/// override. Lets identity tests pin 1/2/8-worker pools without touching the
/// global pool configuration.
ThreadPool* set_ingest_pool(ThreadPool* pool);

/// Ingest accounting for the buffered reader.
struct StreamingReadStats {
  std::size_t bytes_read = 0;    ///< total bytes consumed across all passes
  std::size_t passes = 0;        ///< file passes (serial: 2; pipelined: 1)
  std::size_t buffer_bytes = 0;  ///< I/O buffer (serial) or chunk size
  // Pipelined-reader pipeline stats (all 0 on the serial path).
  std::size_t chunks = 0;        ///< chunks pushed through the parse queue
  std::size_t stitches = 0;      ///< chunk boundaries that split a line
  std::size_t queue_peak = 0;    ///< parse-queue depth high-water mark
};

/// One parsed, validated edge record, delivered in file order.
struct CsrEdgeRec {
  NodeId src;
  NodeId dst;
  float payload;
  float rate_factor;
};

/// Consumer hook for ingest/partition overlap (DESIGN.md §9): read_csr
/// delivers every validated edge exactly once, in file order, as a sequence
/// of batches numbered 0,1,2,… — always from the single commit thread, while
/// parse workers race ahead on later chunks. Batch *boundaries* depend on
/// the reader (pipelined or serial) and the chunk size; the concatenated
/// record stream does not.
class IngestSink {
public:
  virtual ~IngestSink() = default;
  virtual void on_edge_batch(std::uint64_t seq, std::span<const CsrEdgeRec> edges) = 0;
};

/// Reads the FIRST serialized stream graph of `path` (io.hpp format) into a
/// compressed CSR. Header counts are validated against both the ingest cap
/// and the file size BEFORE any allocation.
///
/// One file pass: a background reader thread splits the byte stream into
/// stitched line chunks, pool workers parse the records, and the calling
/// thread commits results in sequence order, so errors surface for the
/// earliest malformed line; transient memory holds the parsed edges in file
/// order (16 bytes/edge) until they are scattered into CSR slot order.
///
/// Called from inside a pool worker or a ThreadPool::InlineScope
/// (ThreadPool::in_worker()), it reads serially instead: two bounded-buffer
/// passes — pass 1 validates the records and counts out-degrees, pass 2
/// fills the CSR slots in place; transient memory is one fixed-size I/O
/// buffer. Both readers produce bit-identical CsrGraphs and fail on the same
/// malformed line.
CsrGraph read_csr(const std::string& path, StreamingReadStats* stats = nullptr,
                  IngestSink* sink = nullptr);

/// Unit-rate loads over a CsrGraph — the same propagation recurrences as
/// compute_load_profile (rates.hpp) evaluated over the compressed layout:
///   rate(v) = 1 for in-degree-0 nodes, else the sum of incoming edge rates;
///   edge_rate(slot e of v) = rate(v) * selectivity(v) * rate_factor(e).
struct CsrLoad {
  std::vector<double> node_cpu;      ///< ipt * node_rate, per node
  std::vector<double> edge_traffic;  ///< payload * edge_rate, per CSR slot
  double total_cpu = 0.0;
  double total_traffic = 0.0;
};

/// Computes the unit-rate load profile by Kahn propagation; throws if the
/// graph contains a directed cycle.
CsrLoad compute_csr_load(const CsrGraph& g);

}  // namespace sc::graph
