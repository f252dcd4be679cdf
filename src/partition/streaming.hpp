// Buffered streaming partitioner for the Huge scale tier (DESIGN.md §9).
//
// Pipeline over a compressed CSR (graph/streaming.hpp) — no full StreamGraph
// or whole-graph WeightedGraph is ever materialized:
//
//   1. stream   — nodes enter a bounded prioritized buffer in id order; the
//                 buffer evicts its most-resolved node (largest fraction of
//                 already-assigned neighbors, BuffCut-style) to a greedy
//                 shard choice maximizing assigned-neighbor connectivity
//                 among shards under the balance limit.
//   2. coarsen  — shards are coarsened concurrently on the ThreadPool
//                 (heavy-edge matching per shard, per-shard split RNG seeds:
//                 results are independent of the thread count).
//   3. partition— the coarse supernode graph (shard supernodes + cross-shard
//                 edges, merged) is handed to the existing in-memory
//                 MultilevelPartitioner / FM machinery.
//   4. project  — node -> supernode -> device labels.
//   5. refine   — balance-constrained boundary sweeps over the fine CSR
//                 recover the quality lost to projection (the coarse
//                 partition cannot see fine-grained boundaries).
//
// Memory stays O(n + m) with small constants (the CSR itself dominates);
// The huge-stream workload of bench/e2e reports peak RSS end to end.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/streaming.hpp"
#include "partition/mlpart.hpp"
#include "sim/cluster.hpp"

namespace sc {
class ThreadPool;
}

namespace sc::partition {

/// Result of the overlapped ingest: the CSR plus per-node undirected degree
/// (out-degree + in-degree) accumulated concurrently with the read — the
/// counting pass streaming_partition's adjacency build would otherwise redo
/// over the whole CSR after ingest finishes.
struct StreamingIngest {
  graph::CsrGraph graph;
  std::vector<std::uint64_t> undirected_degree;  ///< per node, |out| + |in|
  graph::StreamingReadStats read_stats;
  std::size_t degree_batches = 0;     ///< edge batches delivered to the accumulator
  std::size_t degree_queue_peak = 0;  ///< high-water of the ingest->accumulate queue
};

/// Reads a CSR graph while a background thread accumulates per-node
/// undirected degrees from the committed edge stream: read_csr feeds
/// committed edge batches through a common::BoundedQueue to the accumulator
/// (sequence-numbered delivery; counting is commutative, so the totals are
/// independent of batch boundaries and thread interleaving). Pass
/// `&result.undirected_degree` via StreamingOptions::undirected_degree to let
/// streaming_partition skip its adjacency counting pass.
StreamingIngest streaming_read_csr(const std::string& path);

struct StreamingOptions {
  /// Capacity of the prioritized streaming buffer (nodes). Smaller buffers
  /// lower the footprint and the quality.
  std::size_t buffer_nodes = 32768;

  /// Number of locality shards coarsened in parallel. 0 = auto (scales with
  /// the pool size, clamped to the graph).
  std::size_t num_shards = 0;

  /// Total supernode budget handed to the in-memory partitioner after
  /// shard-parallel coarsening (split across shards by node count).
  std::size_t coarse_target = 3072;

  /// Allowed shard weight overshoot during streaming assignment.
  double shard_imbalance = 0.10;

  /// Balance-constrained boundary-refinement sweeps over the fine CSR after
  /// projection (phase 5). Each sweep moves nodes to their
  /// highest-connectivity part when the move strictly reduces the cut and
  /// the destination stays under its capacity share; sweeps stop early once
  /// a pass makes no move. 0 disables refinement (pure projection).
  std::size_t refine_passes = 8;

  /// Options for the final coarse k-way partition (and per-shard coarsening
  /// seeds derive from `partition.seed`).
  PartitionOptions partition;

  /// Optional precomputed per-node undirected degree (|out| + |in|), e.g.
  /// from streaming_read_csr. When set (size must equal the node count), the
  /// adjacency build skips its counting pass over the CSR. The counts feed
  /// the same prefix sum either way, so results are bit-identical.
  const std::vector<std::uint64_t>* undirected_degree = nullptr;

  /// Pool override for shard-parallel coarsening (nullptr = global()).
  /// At a fixed num_shards, results are identical for any pool size by
  /// construction (per-shard seeds, disjoint writes); the auto shard count
  /// (num_shards == 0) scales with the pool size, so pin num_shards when
  /// bit-stable output across machines matters.
  ThreadPool* pool = nullptr;
};

/// Observability counters for tests/benches.
struct StreamingStats {
  std::size_t num_shards = 0;
  std::size_t buffer_capacity = 0;
  std::size_t buffer_peak = 0;       ///< max resident buffer occupancy
  std::size_t evictions = 0;         ///< assignments forced by a full buffer
  std::size_t coarse_nodes = 0;
  std::size_t coarse_edges = 0;
  std::size_t cross_shard_edges = 0; ///< fine edges crossing shard boundaries
  double coarse_cut = 0.0;           ///< cut of the final coarse partition
  std::size_t refine_moves = 0;      ///< node moves made by fine refinement

  /// Eviction churn accounting: every admission-triggered eviction run plus
  /// the final drain counts as one batch. The streaming pass is single-node
  /// by construction (each admission displaces at most one resident), so
  /// batches ~= evictions + 1; batched *admission* would change victim
  /// selection and break bit-identity, so only the accounting is batched.
  std::size_t eviction_batches = 0;

  /// Speculation blocks per refinement pass (0 when refinement is off).
  std::size_t refine_spec_blocks = 0;

  /// Per-stage wall times (seconds): buffer streaming (incl. adjacency
  /// build), shard coarsening, coarse assembly + partition + projection, and
  /// fine boundary refinement.
  double stage_stream_s = 0.0;
  double stage_coarsen_s = 0.0;
  double stage_partition_s = 0.0;
  double stage_refine_s = 0.0;
};

/// Partitions the CSR graph into fractions.size() parts (capacity-weighted,
/// as MultilevelPartitioner::partition). `load` must come from
/// compute_csr_load(g). Deterministic given options; independent of the
/// thread count.
std::vector<int> streaming_partition(const graph::CsrGraph& g, const graph::CsrLoad& load,
                                     const std::vector<double>& fractions,
                                     const StreamingOptions& opts = {},
                                     StreamingStats* stats = nullptr);

/// Cluster-facing wrapper: equal fractions (or capacity-proportional for
/// heterogeneous specs) over spec.num_devices devices.
sim::Placement streaming_allocate(const graph::CsrGraph& g, const sim::ClusterSpec& spec,
                                  const StreamingOptions& opts = {},
                                  StreamingStats* stats = nullptr);

/// Weighted edge cut of a partition over the CSR view (sum of edge_traffic
/// across slots whose endpoints land in different parts) — the comparison
/// metric against the in-memory partitioner's cut_weight.
double csr_cut_weight(const graph::CsrGraph& g, const graph::CsrLoad& load,
                      const std::vector<int>& part);

/// Max part weight divided by its capacity-proportional share (1.0 = perfectly
/// balanced), mirroring metrics.hpp imbalance for the CSR view.
double csr_imbalance(const graph::CsrGraph& g, const graph::CsrLoad& load,
                     const std::vector<int>& part, std::size_t k);

}  // namespace sc::partition
