#include "partition/streaming.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <queue>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "graph/weighted_graph.hpp"

namespace sc::partition {

namespace {

constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;

/// Fixed speculation-block count for the refinement sweeps. A
/// constant (rather than the pool size) keeps the recorded candidate layout
/// — and with it the commit replay — identical on every machine; the commit
/// is exact regardless, this just makes the intermediate state stable too.
constexpr std::size_t kRefineSpecBlocks = 8;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// splitmix64-style finalizer: decorrelates per-shard coarsening seeds from
/// the base seed so results are a pure function of (seed, shard), never of
/// which worker thread processed the shard.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t shard) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Undirected adjacency over the CSR with per-slot traffic weights; built
/// once for the streaming pass (off: n+1, nbr/w: 2m).
struct UndirectedCsr {
  std::vector<std::uint64_t> off;
  std::vector<graph::NodeId> nbr;
  std::vector<double> w;
};

UndirectedCsr build_undirected(const graph::CsrGraph& g, const graph::CsrLoad& load,
                               const std::vector<std::uint64_t>* degree) {
  const std::size_t n = g.num_nodes();
  UndirectedCsr u;
  u.off.assign(n + 1, 0);
  if (degree != nullptr) {
    // Counts accumulated during ingest (streaming_read_csr); same per-node
    // sums as the counting pass below, just computed while the file was
    // still being read.
    SC_CHECK(degree->size() == n, "undirected_degree has " << degree->size()
                                                           << " entries, graph has " << n
                                                           << " nodes");
    for (std::size_t v = 0; v < n; ++v) u.off[v + 1] = (*degree)[v];
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      const auto targets = g.out(graph::checked_node_id(v));
      u.off[v + 1] += targets.size();
      for (const graph::NodeId d : targets) ++u.off[static_cast<std::size_t>(d) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) u.off[v + 1] += u.off[v];
  SC_CHECK(u.off[n] == 2 * g.num_edges(),
           "undirected slot total " << u.off[n] << " != 2m = " << 2 * g.num_edges());
  u.nbr.resize(u.off[n]);
  u.w.resize(u.off[n]);
  for (std::size_t v = 0; v < n; ++v) {
    const graph::NodeId src = graph::checked_node_id(v);
    std::uint64_t slot = g.out_offset(src);
    for (const graph::NodeId d : g.out(src)) {
      const double traffic = load.edge_traffic[slot];
      u.nbr[u.off[v]] = d;
      u.w[u.off[v]++] = traffic;
      u.nbr[u.off[d]] = src;
      u.w[u.off[d]++] = traffic;
      ++slot;
    }
  }
  // The cursors advanced each off[v] to the original off[v+1]; shift down.
  for (std::size_t v = n; v > 0; --v) u.off[v] = u.off[v - 1];
  u.off[0] = 0;
  return u;
}

/// Greedy shard choice for one evicted node: the highest-connectivity shard
/// whose weight stays under the balance limit, falling back to the lightest
/// shard. Ties prefer the lighter shard, then the lower index — all
/// deterministic, so the whole streaming pass is reproducible.
std::size_t choose_shard(const std::vector<double>& conn, const std::vector<double>& shard_w,
                         double node_w, double limit) {
  const std::size_t S = conn.size();
  std::size_t best = S;
  for (std::size_t s = 0; s < S; ++s) {
    if (shard_w[s] + node_w > limit) continue;
    if (best == S || conn[s] > conn[best] ||
        (conn[s] == conn[best] && shard_w[s] < shard_w[best])) {
      best = s;
    }
  }
  if (best != S) return best;
  std::size_t lightest = 0;
  for (std::size_t s = 1; s < S; ++s) {
    if (shard_w[s] < shard_w[lightest]) lightest = s;
  }
  return lightest;
}

/// Per-shard output of the parallel coarsening phase.
struct ShardCoarse {
  std::size_t coarse_count = 0;
  std::vector<double> coarse_weight;              ///< per coarse node, node_cpu sum
  std::vector<graph::WeightedEdge> intra_edges;   ///< local coarse endpoints
};

/// IngestSink forwarding committed edge batches through a bounded queue to a
/// background accumulator that bumps per-endpoint undirected degree counts.
///
/// Determinism: degree counting is commutative addition, so the final counts
/// depend only on the committed edge multiset — identical for any batch
/// boundary layout, queue capacity, or interleaving. Delivery order is still
/// asserted (sequence numbers are contiguous from 0) to catch protocol
/// regressions in the ingest committer.
///
/// Thread discipline: the producer side (on_edge_batch, called from the
/// single ingest committer thread) owns next_seq_/batches_/peak_; the
/// accumulator thread owns degree_/error_ until finish() joins it. The only
/// shared structure is the internally locked common::BoundedQueue, and
/// finish()'s join provides the happens-before for reading the accumulator's
/// state afterwards — no extra locking needed.
class DegreeSink final : public graph::IngestSink {
public:
  DegreeSink() : q_(kQueueCapacity) {
    worker_ = std::thread([this] { drain(); });
  }

  DegreeSink(const DegreeSink&) = delete;
  DegreeSink& operator=(const DegreeSink&) = delete;

  ~DegreeSink() override {
    q_.close();
    if (worker_.joinable()) worker_.join();
  }

  void on_edge_batch(std::uint64_t seq, std::span<const graph::CsrEdgeRec> edges) override {
    SC_CHECK(seq == next_seq_, "edge batch " << seq << " delivered out of sequence (expected "
                                             << next_seq_ << ")");
    ++next_seq_;
    ++batches_;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> batch;
    batch.reserve(edges.size());
    for (const graph::CsrEdgeRec& e : edges) batch.emplace_back(e.src, e.dst);
    // try_push leaves `batch` intact on failure, so spinning on the same
    // object is safe. A closed queue means the accumulator died; stop
    // feeding it and let finish() surface the stored error.
    while (!q_.try_push(std::move(batch))) {
      if (q_.closed()) return;
      std::this_thread::yield();
    }
    peak_ = std::max(peak_, q_.size());
  }

  /// Joins the accumulator and returns the per-node counts, resized to `n`
  /// (trailing zero-degree nodes never appeared in any edge).
  std::vector<std::uint64_t> finish(std::size_t n, std::size_t* batches, std::size_t* peak) {
    q_.close();
    if (worker_.joinable()) worker_.join();
    if (error_ != nullptr) std::rethrow_exception(error_);
    degree_.resize(n, 0);
    *batches = batches_;
    *peak = peak_;
    return std::move(degree_);
  }

private:
  static constexpr std::size_t kQueueCapacity = 16;

  void drain() {
    std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> got;
    try {
      for (;;) {
        got.clear();
        if (q_.pop_batch(got, kQueueCapacity, std::chrono::microseconds(200)) == 0) return;
        for (const auto& batch : got) {
          for (const auto& [src, dst] : batch) {
            const std::size_t need =
                static_cast<std::size_t>(std::max(src, dst)) + 1;
            if (degree_.size() < need) degree_.resize(need, 0);
            ++degree_[src];
            ++degree_[dst];
          }
        }
      }
    } catch (...) {
      error_ = std::current_exception();
      q_.close();  // unblock the producer's spin so ingest can finish
    }
  }

  common::BoundedQueue<std::vector<std::pair<graph::NodeId, graph::NodeId>>> q_;
  std::thread worker_;
  // Producer-thread state (ingest committer only).
  std::uint64_t next_seq_ = 0;
  std::size_t batches_ = 0;
  std::size_t peak_ = 0;
  // Accumulator-thread state, read only after finish() joins.
  std::vector<std::uint64_t> degree_;
  std::exception_ptr error_;
};

}  // namespace

// sc-lint: streaming-path
StreamingIngest streaming_read_csr(const std::string& path) {
  StreamingIngest out;
  DegreeSink sink;
  out.graph = graph::read_csr(path, &out.read_stats, &sink);
  out.undirected_degree =
      sink.finish(out.graph.num_nodes(), &out.degree_batches, &out.degree_queue_peak);
  return out;
}

// sc-lint: streaming-path
std::vector<int> streaming_partition(const graph::CsrGraph& g, const graph::CsrLoad& load,
                                     const std::vector<double>& fractions,
                                     const StreamingOptions& opts, StreamingStats* stats) {
  const std::size_t n = g.num_nodes();
  const std::size_t k = fractions.size();
  SC_CHECK(k > 0, "streaming_partition needs at least one part");
  SC_CHECK(load.node_cpu.size() == n && load.edge_traffic.size() == g.num_edges(),
           "CsrLoad shape mismatch: load for " << load.node_cpu.size() << " nodes/"
                                               << load.edge_traffic.size() << " edges, graph has "
                                               << n << "/" << g.num_edges());
  if (stats != nullptr) *stats = StreamingStats{};
  if (k == 1 || n == 0) return std::vector<int>(n, 0);

  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t coarse_target = std::max<std::size_t>(1, opts.coarse_target);
  std::size_t S = opts.num_shards;
  if (S == 0) S = std::max<std::size_t>(2, 2 * pool.size());
  S = std::min({S, n, coarse_target});
  S = std::max<std::size_t>(1, S);
  const std::size_t buffer_cap = std::max<std::size_t>(1, opts.buffer_nodes);

  // ---- Phase 1: stream nodes through the bounded prioritized buffer. ----
  const auto t_stream = std::chrono::steady_clock::now();
  const UndirectedCsr u = build_undirected(g, load, opts.undirected_degree);
  const double limit =
      (1.0 + std::max(0.0, opts.shard_imbalance)) * load.total_cpu / static_cast<double>(S);

  std::vector<std::uint32_t> shard_of(n, kUnassigned);
  std::vector<std::uint32_t> assigned_nbrs(n, 0);
  std::vector<char> in_buffer(n, 0);
  std::vector<double> shard_w(S, 0.0);
  std::vector<double> conn(S, 0.0);
  // Lazy max-heap: (assigned-neighbor count, ~id) so the most-resolved node
  // wins and ties break toward the lowest id. Stale entries (count no longer
  // current, or node already assigned) are discarded on pop.
  std::priority_queue<std::pair<std::uint32_t, std::uint32_t>> heap;
  std::size_t resident = 0;
  std::size_t buffer_peak = 0;
  std::size_t evictions = 0;
  std::size_t eviction_batches = 0;

  const auto evict_one = [&] {
    while (true) {
      SC_ASSERT(!heap.empty(), "streaming buffer heap drained with residents left");
      const auto [count, inv] = heap.top();
      heap.pop();
      const std::uint32_t v = ~inv;
      if (shard_of[v] != kUnassigned || count != assigned_nbrs[v]) continue;  // stale
      for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) {
        const std::uint32_t nb = shard_of[u.nbr[s]];
        if (nb != kUnassigned) conn[nb] += u.w[s];
      }
      const std::size_t shard = choose_shard(conn, shard_w, load.node_cpu[v], limit);
      for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) {
        const std::uint32_t nb = shard_of[u.nbr[s]];
        if (nb != kUnassigned) conn[nb] = 0.0;
      }
      shard_of[v] = static_cast<std::uint32_t>(shard);
      shard_w[shard] += load.node_cpu[v];
      in_buffer[v] = 0;
      --resident;
      for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) {
        const graph::NodeId nb = u.nbr[s];
        if (shard_of[nb] != kUnassigned) continue;
        ++assigned_nbrs[nb];
        if (in_buffer[nb]) heap.emplace(assigned_nbrs[nb], ~nb);
      }
      return;
    }
  };

  for (std::size_t v = 0; v < n; ++v) {
    in_buffer[v] = 1;
    ++resident;
    heap.emplace(assigned_nbrs[v], ~static_cast<std::uint32_t>(v));
    buffer_peak = std::max(buffer_peak, resident);
    bool evicted = false;
    while (resident > buffer_cap) {
      evict_one();
      ++evictions;
      evicted = true;
    }
    if (evicted) ++eviction_batches;
  }
  if (resident > 0) ++eviction_batches;  // the final drain is one batch
  while (resident > 0) evict_one();

  // ---- Phase 2: coarsen the shards concurrently. ----
  const double stream_s = seconds_since(t_stream);
  const auto t_coarsen = std::chrono::steady_clock::now();
  std::vector<std::size_t> shard_count(S, 0);
  for (std::size_t v = 0; v < n; ++v) ++shard_count[shard_of[v]];
  std::vector<std::size_t> shard_off(S + 1, 0);
  for (std::size_t s = 0; s < S; ++s) shard_off[s + 1] = shard_off[s] + shard_count[s];
  std::vector<graph::NodeId> members(n);
  {
    std::vector<std::size_t> cursor(shard_off.begin(), shard_off.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      members[cursor[shard_of[v]]++] = graph::checked_node_id(v);
    }
  }

  // Written disjointly across shards (each node belongs to exactly one).
  std::vector<graph::NodeId> to_local(n, graph::kInvalidNode);
  std::vector<graph::NodeId> supernode_of(n, graph::kInvalidNode);
  std::vector<ShardCoarse> shard_out(S);
  std::vector<std::uint64_t> shard_seed(S);
  for (std::size_t s = 0; s < S; ++s) shard_seed[s] = mix_seed(opts.partition.seed, s);

  pool.parallel_for(S, [&](std::size_t s) {
    const std::size_t shard_n = shard_count[s];
    if (shard_n == 0) return;
    const graph::NodeId* mem = members.data() + shard_off[s];
    for (std::size_t i = 0; i < shard_n; ++i) {
      to_local[mem[i]] = graph::checked_node_id(i);
    }
    std::vector<double> weights(shard_n);
    std::vector<graph::WeightedEdge> edges;
    for (std::size_t i = 0; i < shard_n; ++i) {
      const graph::NodeId v = mem[i];
      weights[i] = load.node_cpu[v];
      std::uint64_t slot = g.out_offset(v);
      for (const graph::NodeId d : g.out(v)) {
        if (shard_of[d] == s) {
          edges.push_back({graph::checked_node_id(i), to_local[d], load.edge_traffic[slot]});
        }
        ++slot;
      }
    }
    const graph::WeightedGraph wg(std::move(weights), edges);

    PartitionOptions po = opts.partition;
    po.seed = shard_seed[s];
    const std::size_t target =
        std::max<std::size_t>(1, coarse_target * shard_n / std::max<std::size_t>(1, n));
    const std::vector<graph::NodeId> labels = MultilevelPartitioner(po).coarsen_to(wg, target);

    ShardCoarse& out = shard_out[s];
    std::size_t coarse_count = 0;
    for (const graph::NodeId lab : labels) {
      coarse_count = std::max<std::size_t>(coarse_count, static_cast<std::size_t>(lab) + 1);
    }
    out.coarse_count = coarse_count;
    out.coarse_weight.assign(coarse_count, 0.0);
    for (std::size_t i = 0; i < shard_n; ++i) {
      out.coarse_weight[labels[i]] += load.node_cpu[mem[i]];
      supernode_of[mem[i]] = labels[i];
    }
    for (std::size_t i = 0; i < shard_n; ++i) {
      const graph::NodeId v = mem[i];
      std::uint64_t slot = g.out_offset(v);
      for (const graph::NodeId d : g.out(v)) {
        if (shard_of[d] == s) {
          const graph::NodeId ca = labels[i];
          const graph::NodeId cb = labels[to_local[d]];
          if (ca != cb) out.intra_edges.push_back({ca, cb, load.edge_traffic[slot]});
        }
        ++slot;
      }
    }
  });

  // ---- Phase 3: assemble the global coarse graph and partition it. ----
  const double coarsen_s = seconds_since(t_coarsen);
  const auto t_partition = std::chrono::steady_clock::now();
  std::vector<std::size_t> coarse_off(S + 1, 0);
  for (std::size_t s = 0; s < S; ++s) {
    coarse_off[s + 1] = coarse_off[s] + shard_out[s].coarse_count;
  }
  const std::size_t C = coarse_off[S];
  SC_CHECK(C > 0, "shard coarsening produced an empty coarse graph");

  std::vector<double> coarse_weights;
  coarse_weights.reserve(C);
  std::vector<graph::WeightedEdge> coarse_edges;
  for (std::size_t s = 0; s < S; ++s) {
    const ShardCoarse& out = shard_out[s];
    coarse_weights.insert(coarse_weights.end(), out.coarse_weight.begin(),
                          out.coarse_weight.end());
    const graph::NodeId off = graph::checked_node_id(coarse_off[s]);
    for (const graph::WeightedEdge& e : out.intra_edges) {
      // Widen before adding: a 32-bit sum could wrap before a checked
      // narrowing ever saw it.
      coarse_edges.push_back(
          {graph::checked_node_id(static_cast<std::uint64_t>(e.a) + off),
           graph::checked_node_id(static_cast<std::uint64_t>(e.b) + off),
           e.weight});
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    supernode_of[v] = graph::checked_node_id(
        static_cast<std::uint64_t>(supernode_of[v]) + coarse_off[shard_of[v]]);
  }
  std::size_t cross_shard = 0;
  for (std::size_t v = 0; v < n; ++v) {
    // v < num_nodes, which the CsrGraph bounds to the 32-bit id space.
    const graph::NodeId src = static_cast<graph::NodeId>(v);  // sc-lint: allow(unchecked-id-narrowing)
    std::uint64_t slot = g.out_offset(src);
    for (const graph::NodeId d : g.out(src)) {
      if (shard_of[v] != shard_of[d]) {
        coarse_edges.push_back({supernode_of[v], supernode_of[d], load.edge_traffic[slot]});
        ++cross_shard;
      }
      ++slot;
    }
  }
  const graph::WeightedGraph coarse(std::move(coarse_weights), coarse_edges);

  const std::vector<int> coarse_labels =
      MultilevelPartitioner(opts.partition).partition(coarse, fractions);

  // ---- Phase 4: project supernode labels back onto the fine nodes. ----
  std::vector<int> out(n);
  for (std::size_t v = 0; v < n; ++v) out[v] = coarse_labels[supernode_of[v]];
  const double partition_s = seconds_since(t_partition);
  const auto t_refine = std::chrono::steady_clock::now();

  // ---- Phase 5: boundary refinement on the fine CSR. ----
  // The coarse partition cannot see fine-grained boundaries, so projection
  // leaves easy gains on the table. Greedy sweeps move each node to its
  // highest-connectivity part when that strictly reduces the cut and the
  // destination stays under its capacity share — O(passes * m) time, O(n + k)
  // extra memory, deterministic (the decisions of a sequential sweep in
  // node-id order).
  //
  // Each sweep runs speculate-then-commit: a fixed number of contiguous id
  // blocks scan the frozen pass-start labels in parallel (reads only;
  // block-local outputs — conflict-free ownership), then an id-order commit
  // on the calling thread replays the sequential sweep's decisions,
  // rescanning any node whose neighborhood changed earlier in the pass.
  // Identical results at any block count or pool size; see DESIGN.md §9.
  std::size_t refine_moves = 0;
  std::size_t spec_blocks = 0;
  if (opts.refine_passes > 0) {
    double frac_sum = 0.0;
    for (const double f : fractions) frac_sum += f;
    SC_CHECK(frac_sum > 0.0, "fractions must sum to a positive value");
    const double eps = std::max(0.0, opts.partition.imbalance_eps);
    std::vector<double> part_limit(k);
    for (std::size_t p = 0; p < k; ++p) {
      part_limit[p] = (1.0 + eps) * load.total_cpu * fractions[p] / frac_sum;
    }
    std::vector<double> part_w(k, 0.0);
    for (std::size_t v = 0; v < n; ++v) part_w[static_cast<std::size_t>(out[v])] += load.node_cpu[v];

    std::vector<double> pconn(k, 0.0);
    std::vector<int> touched;
    touched.reserve(k);

    struct SpecCand {
      graph::NodeId v;
      std::uint32_t begin;  ///< [begin, end) into the block's entries
      std::uint32_t end;
    };
    struct SpecBlock {
      std::vector<SpecCand> cands;
      std::vector<std::pair<int, double>> entries;  ///< (part, connectivity)
    };
    const std::size_t B = std::min<std::size_t>(kRefineSpecBlocks, n);
    std::vector<SpecBlock> blocks(B);
    std::vector<std::uint8_t> dirty(n, 0);  // a neighbor moved earlier this pass

    // Speculate-then-commit sweep, provably equal to a sequential sweep over
    // the live labels and weights:
    //   - A *clean* candidate (no neighbor moved before its turn) has exact
    //     speculated connectivity — only balance needs the live part_w,
    //     which the id-order commit tracks exactly.
    //   - A *dirty* node rescans its neighborhood against the live labels,
    //     which IS the sequential sweep's computation.
    //   - A clean non-candidate has every neighbor in its own part, so the
    //     sequential sweep would not move it either.
    const auto sweep = [&]() {
      pool.parallel_for(B, [&](std::size_t b) {
        SpecBlock& blk = blocks[b];
        blk.cands.clear();
        blk.entries.clear();
        std::vector<double> bconn(k, 0.0);
        std::vector<int> btouched;
        btouched.reserve(k);
        const std::size_t lo = n * b / B;
        const std::size_t hi = n * (b + 1) / B;
        for (std::size_t v = lo; v < hi; ++v) {
          const int cur = out[v];
          bool boundary = false;
          for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) {
            const int p = out[u.nbr[s]];
            if (bconn[p] == 0.0) btouched.push_back(p);
            bconn[p] += u.w[s];
            boundary |= p != cur;
          }
          if (boundary) {
            const auto begin = static_cast<std::uint32_t>(blk.entries.size());
            for (const int p : btouched) blk.entries.emplace_back(p, bconn[p]);
            blk.cands.push_back({graph::checked_node_id(v), begin,
                                 static_cast<std::uint32_t>(blk.entries.size())});
          }
          for (const int p : btouched) bconn[p] = 0.0;
          btouched.clear();
        }
      });

      std::size_t moves = 0;
      for (std::size_t b = 0; b < B; ++b) {
        const SpecBlock& blk = blocks[b];
        std::size_t ci = 0;
        const std::size_t lo = n * b / B;
        const std::size_t hi = n * (b + 1) / B;
        for (std::size_t v = lo; v < hi; ++v) {
          const bool has_cand = ci < blk.cands.size() && blk.cands[ci].v == v;
          if (!has_cand && !dirty[v]) continue;
          const int cur = out[v];
          const double node_w = load.node_cpu[v];
          int best = cur;
          if (has_cand && !dirty[v]) {
            const SpecCand& cand = blk.cands[ci];
            double cur_conn = 0.0;
            for (std::uint32_t i = cand.begin; i < cand.end; ++i) {
              if (blk.entries[i].first == cur) cur_conn = blk.entries[i].second;
            }
            double best_conn = 0.0;
            for (std::uint32_t i = cand.begin; i < cand.end; ++i) {
              const auto [p, c] = blk.entries[i];
              if (p == cur || c <= cur_conn) continue;
              if (part_w[static_cast<std::size_t>(p)] + node_w >
                  part_limit[static_cast<std::size_t>(p)]) {
                continue;
              }
              if (best == cur || c > best_conn || (c == best_conn && p < best)) {
                best = p;
                best_conn = c;
              }
            }
          } else {
            for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) {
              const int p = out[u.nbr[s]];
              if (pconn[p] == 0.0) touched.push_back(p);
              pconn[p] += u.w[s];
            }
            for (const int p : touched) {
              if (p == cur || pconn[p] <= pconn[cur]) continue;
              if (part_w[p] + node_w > part_limit[p]) continue;
              if (best == cur || pconn[p] > pconn[best] ||
                  (pconn[p] == pconn[best] && p < best)) {
                best = p;
              }
            }
            for (const int p : touched) pconn[p] = 0.0;
            touched.clear();
          }
          if (has_cand) ++ci;
          if (best != cur) {
            part_w[static_cast<std::size_t>(cur)] -= node_w;
            part_w[static_cast<std::size_t>(best)] += node_w;
            out[v] = best;
            ++moves;
            for (std::uint64_t s = u.off[v]; s < u.off[v + 1]; ++s) dirty[u.nbr[s]] = 1;
          }
        }
      }
      if (moves != 0) std::fill(dirty.begin(), dirty.end(), 0);
      return moves;
    };

    spec_blocks = B;
    for (std::size_t pass = 0; pass < opts.refine_passes; ++pass) {
      const std::size_t moves = sweep();
      refine_moves += moves;
      if (moves == 0) break;
    }
  }
  const double refine_s = seconds_since(t_refine);

  if (stats != nullptr) {
    stats->num_shards = S;
    stats->buffer_capacity = buffer_cap;
    stats->buffer_peak = buffer_peak;
    stats->evictions = evictions;
    stats->coarse_nodes = C;
    stats->coarse_edges = coarse.num_edges();
    stats->cross_shard_edges = cross_shard;
    stats->refine_moves = refine_moves;
    stats->eviction_batches = eviction_batches;
    stats->refine_spec_blocks = spec_blocks;
    stats->stage_stream_s = stream_s;
    stats->stage_coarsen_s = coarsen_s;
    stats->stage_partition_s = partition_s;
    stats->stage_refine_s = refine_s;
    double coarse_cut = 0.0;
    for (const graph::WeightedEdge& e : coarse.edges()) {
      if (coarse_labels[e.a] != coarse_labels[e.b]) coarse_cut += e.weight;
    }
    stats->coarse_cut = coarse_cut;
  }
  return out;
}

// sc-lint: streaming-path
sim::Placement streaming_allocate(const graph::CsrGraph& g, const sim::ClusterSpec& spec,
                                  const StreamingOptions& opts, StreamingStats* stats) {
  SC_CHECK(spec.num_devices > 0, "streaming_allocate needs at least one device");
  const graph::CsrLoad load = graph::compute_csr_load(g);
  std::vector<double> fractions(spec.num_devices, 1.0);
  if (spec.heterogeneous()) {
    for (std::size_t d = 0; d < spec.num_devices; ++d) fractions[d] = spec.mips_of(d);
  }
  return streaming_partition(g, load, fractions, opts, stats);
}

double csr_cut_weight(const graph::CsrGraph& g, const graph::CsrLoad& load,
                      const std::vector<int>& part) {
  SC_CHECK(part.size() == g.num_nodes(),
           "partition size " << part.size() << " != node count " << g.num_nodes());
  double cut = 0.0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    // v < num_nodes, which the CsrGraph bounds to the 32-bit id space.
    const graph::NodeId src = static_cast<graph::NodeId>(v);  // sc-lint: allow(unchecked-id-narrowing)
    std::uint64_t slot = g.out_offset(src);
    for (const graph::NodeId d : g.out(src)) {
      if (part[v] != part[d]) cut += load.edge_traffic[slot];
      ++slot;
    }
  }
  return cut;
}

double csr_imbalance(const graph::CsrGraph& g, const graph::CsrLoad& load,
                     const std::vector<int>& part, std::size_t k) {
  SC_CHECK(part.size() == g.num_nodes(),
           "partition size " << part.size() << " != node count " << g.num_nodes());
  SC_CHECK(k > 0, "imbalance needs k > 0");
  std::vector<double> weight(k, 0.0);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const int p = part[v];
    SC_CHECK(p >= 0 && static_cast<std::size_t>(p) < k,
             "label " << p << " out of range for k=" << k);
    weight[static_cast<std::size_t>(p)] += load.node_cpu[v];
  }
  if (load.total_cpu <= 0.0) return 1.0;
  const double share = load.total_cpu / static_cast<double>(k);
  double max_w = 0.0;
  for (const double w : weight) max_w = std::max(max_w, w);
  return max_w / share;
}

}  // namespace sc::partition
