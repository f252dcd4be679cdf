#include "partition/refine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "partition/metrics.hpp"

namespace sc::partition {

using graph::NodeId;
using graph::WeightedGraph;

namespace {

// ---------------------------------------------------------------------------
// FM move selection (DESIGN.md §5.4).
//
// Each FM step moves the unlocked, balance-eligible node of maximum gain,
// lowest id among equals. Gains are doubles; each is mapped to its
// order-preserving 64-bit pattern (flip all bits of negatives, set the sign
// bit of non-negatives — the standard monotone float ordering trick), and the
// argmax comes from a max-heap of (gain key, ~id) entries with lazy
// invalidation. (Gains are never -0.0: accumulation starts at +0.0 and IEEE
// addition never produces -0.0 from a +0.0 accumulator, so equal gains always
// share one key.)
// ---------------------------------------------------------------------------

/// Order-preserving 64-bit pattern of a gain: a > b iff key(a) > key(b).
std::uint64_t gain_key_bits(double gain) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(gain);
  return (bits & 0x8000000000000000ULL) != 0 ? ~bits : (bits | 0x8000000000000000ULL);
}

/// Lazy-heap entry: (gain key, ~id) so the max-heap order is gain descending
/// with ties broken toward the LOWEST node id.
using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;

struct FmScratch {
  std::vector<double> gain;
  std::vector<std::uint8_t> locked;
  std::vector<NodeId> moves;
  // Flat (neighbor, weight) adjacency copied once per bound graph, in the
  // exact g.incident() edge order, so gain sums are accumulated in a fixed
  // order while the inner loops read contiguous memory instead of chasing
  // edge ids. `bound` is trusted only between an fm_refine_bind() and the
  // next change to the graph object (bisect trial loops re-bind every time).
  std::vector<std::int32_t> adj_off;
  std::vector<NodeId> adj_nbr;
  std::vector<double> adj_w;
  const WeightedGraph* bound = nullptr;
  // `heap` holds live and stale entries, `stash` parks fresh-but-balance-
  // ineligible entries popped while hunting for the step's pick.
  std::vector<HeapEntry> heap;
  std::vector<HeapEntry> stash;

  static FmScratch& local() {
    thread_local FmScratch scratch;
    return scratch;
  }
};

/// Copies (neighbor, weight) pairs in the exact g.incident() edge order, so
/// gain sums do not depend on whether the graph was bound. Does NOT set
/// s.bound: only fm_refine_bind() may vouch that the graph object stays
/// unchanged across calls.
// sc-lint: hot-path
void flatten_adjacency(const WeightedGraph& g, FmScratch& s) {
  const std::size_t n = g.num_nodes();
  // adj_off is deliberately int32 (halves the scratch footprint); the
  // flattened incidence has 2m entries, so fail loudly instead of wrapping
  // once 2m no longer fits. Huge-tier graphs reach FM only after coarsening,
  // far below this bound.
  SC_CHECK(g.num_edges() <= (std::size_t{1} << 30),
           "FM refinement supports at most 2^30 edges (got " << g.num_edges() << ")");
  s.adj_off.resize(n + 1);
  s.adj_off[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    s.adj_off[v + 1] = s.adj_off[v] + static_cast<std::int32_t>(g.incident(v).size());
  }
  s.adj_nbr.resize(static_cast<std::size_t>(s.adj_off[n]));
  s.adj_w.resize(static_cast<std::size_t>(s.adj_off[n]));
  for (NodeId v = 0; v < n; ++v) {
    std::int32_t idx = s.adj_off[v];
    for (const graph::EdgeId e : g.incident(v)) {
      s.adj_nbr[static_cast<std::size_t>(idx)] = g.other(e, v);
      s.adj_w[static_cast<std::size_t>(idx)] = g.edge(e).weight;
      ++idx;
    }
  }
}

/// Greedy k-way refinement buffers, one set per thread.
struct KwayBuffers {
  std::vector<double> lmax;
  std::vector<double> weight;
  std::vector<double> conn;
  std::vector<int> touched;

  static KwayBuffers& local() {
    thread_local KwayBuffers buffers;
    return buffers;
  }
};

}  // namespace

/// FM passes with rollback. Each step's best move comes from the lazy heap:
/// every unlocked node always owns at least one FRESH entry (key ==
/// gain_key_bits of its current gain) — seeded at pass start, re-pushed
/// whenever a neighbor update changes the key, and restored from the stash
/// when a pop finds it balance-ineligible. Pops arrive in globally decreasing
/// key order, so the first fresh, unlocked, balance-eligible pop IS the
/// (max gain, lowest id) choice. Stale entries (key mismatch) and locked
/// nodes' entries are discarded on pop; an ABA re-push (gain returns to an
/// old value) merely duplicates an identical key, which cannot change the
/// argmax. Per-step cost is O((stale + stash + 1) log n). Marked hot-path:
/// after warm-up it allocates nothing.
// sc-lint: hot-path
double fm_refine_bisection(const WeightedGraph& g, std::vector<int>& part,
                           double target0, double eps, std::size_t max_passes) {
  SC_CHECK(part.size() == g.num_nodes(), "partition size mismatch");
  FmScratch& s = FmScratch::local();
  const std::size_t n = g.num_nodes();
  const double total = g.total_node_weight();
  const double target1 = total - target0;
  // Strict caps define which prefixes may be committed; exploratory caps let
  // a pass walk through temporarily imbalanced states (classic FM behaviour —
  // without this, a balanced-but-poor start has no legal first move).
  double max_node_w = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_node_w = std::max(max_node_w, g.node_weight(v));
  }
  const double cap0 = (1.0 + eps) * std::max(target0, 1e-12);
  const double cap1 = (1.0 + eps) * std::max(target1, 1e-12);
  const double explore0 = std::max(cap0, target0 + max_node_w);
  const double explore1 = std::max(cap1, target1 + max_node_w);

  double side_w[2] = {0.0, 0.0};
  for (NodeId v = 0; v < n; ++v) side_w[part[v]] += g.node_weight(v);

  double cut = cut_weight(g, part);

  if (s.bound != &g) flatten_adjacency(g, s);

  const auto recompute_gain = [&](NodeId v) {
    const int pv = part[v];
    double gv = 0.0;
    for (std::int32_t i = s.adj_off[v]; i < s.adj_off[v + 1]; ++i) {
      const double w = s.adj_w[static_cast<std::size_t>(i)];
      gv += (part[s.adj_nbr[static_cast<std::size_t>(i)]] != pv) ? w : -w;
    }
    s.gain[v] = gv;
  };

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    s.gain.resize(n);  // every entry is overwritten before its first read
    s.locked.assign(n, 0);
    s.moves.clear();
    if (s.moves.capacity() < n) s.moves.reserve(n);
    s.heap.clear();
    if (s.heap.capacity() < n) s.heap.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      recompute_gain(v);
      s.heap.push_back({gain_key_bits(s.gain[v]), ~static_cast<std::uint32_t>(v)});
    }
    std::make_heap(s.heap.begin(), s.heap.end());
    double best_cut = cut;
    std::size_t best_prefix = 0;
    double running = cut;

    for (std::size_t step = 0; step < n; ++step) {
      NodeId pick = graph::kInvalidNode;
      double pick_gain = 0.0;
      s.stash.clear();
      while (!s.heap.empty()) {
        std::pop_heap(s.heap.begin(), s.heap.end());
        const HeapEntry top = s.heap.back();
        s.heap.pop_back();
        // Heap entries encode node indices (< n) by construction.
        const NodeId v = static_cast<NodeId>(~top.second);  // sc-lint: allow(unchecked-id-narrowing)
        if (s.locked[v] != 0 || top.first != gain_key_bits(s.gain[v])) {
          continue;  // locked or stale: a fresher entry (or none) supersedes it
        }
        const int to = 1 - part[v];
        const double new_w = side_w[to] + g.node_weight(v);
        if ((to == 0 ? new_w > explore0 : new_w > explore1)) {
          s.stash.push_back(top);  // still fresh; only ineligible THIS step
          continue;
        }
        pick = v;
        pick_gain = s.gain[v];
        break;
      }
      for (const HeapEntry& e : s.stash) {
        s.heap.push_back(e);
        std::push_heap(s.heap.begin(), s.heap.end());
      }
      if (pick == graph::kInvalidNode) break;

      const int from = part[pick];
      const int to = 1 - from;
      side_w[from] -= g.node_weight(pick);
      side_w[to] += g.node_weight(pick);
      part[pick] = to;
      s.locked[pick] = 1;
      running -= pick_gain;
      s.moves.push_back(pick);
      for (std::int32_t i = s.adj_off[pick]; i < s.adj_off[pick + 1]; ++i) {
        const NodeId u = s.adj_nbr[static_cast<std::size_t>(i)];
        if (s.locked[u] != 0) continue;
        const std::uint64_t old_key = gain_key_bits(s.gain[u]);
        recompute_gain(u);
        const std::uint64_t new_key = gain_key_bits(s.gain[u]);
        if (new_key != old_key) {
          s.heap.push_back({new_key, ~static_cast<std::uint32_t>(u)});
          std::push_heap(s.heap.begin(), s.heap.end());
        }
      }
      const bool feasible = side_w[0] <= cap0 + 1e-12 && side_w[1] <= cap1 + 1e-12;
      if (feasible && running < best_cut - 1e-12) {
        best_cut = running;
        best_prefix = s.moves.size();
      }
    }

    for (std::size_t i = s.moves.size(); i > best_prefix; --i) {
      const NodeId v = s.moves[i - 1];
      const int from = part[v];
      const int to = 1 - from;
      side_w[from] -= g.node_weight(v);
      side_w[to] += g.node_weight(v);
      part[v] = to;
    }

    if (best_cut >= cut - 1e-12) {
      cut = best_cut;
      break;
    }
    cut = best_cut;
  }
  return cut;
}

void fm_refine_bind(const WeightedGraph& g) {
  FmScratch& s = FmScratch::local();
  flatten_adjacency(g, s);
  s.bound = &g;
}

double greedy_kway_refine(const WeightedGraph& g, std::vector<int>& part, std::size_t k,
                          double eps, std::size_t max_passes) {
  SC_CHECK(k >= 1, "k must be positive");
  // Convenience overload for cold callers; the partitioner's hot path calls
  // the targets overload with workspace-held targets.
  const std::vector<double> targets(  // sc-lint: allow(transitive-alloc)
      k, g.total_node_weight() / static_cast<double>(k));
  return greedy_kway_refine(g, part, targets, eps, max_passes);
}

// sc-lint: hot-path
double greedy_kway_refine(const WeightedGraph& g, std::vector<int>& part,
                          const std::vector<double>& targets, double eps,
                          std::size_t max_passes) {
  KwayBuffers& b = KwayBuffers::local();
  SC_CHECK(part.size() == g.num_nodes(), "partition size mismatch");
  SC_CHECK(!targets.empty(), "need at least one part");
  const std::size_t k = targets.size();
  const std::size_t n = g.num_nodes();
  b.lmax.resize(k);
  for (std::size_t q = 0; q < k; ++q) {
    SC_CHECK(targets[q] >= 0.0, "part targets must be non-negative");
    b.lmax[q] = (1.0 + eps) * targets[q];
  }

  b.weight.assign(k, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    b.weight[static_cast<std::size_t>(part[v])] += g.node_weight(v);
  }

  b.conn.assign(k, 0.0);
  b.touched.clear();
  if (b.touched.capacity() < 16) b.touched.reserve(16);

  std::vector<double>& weight = b.weight;
  std::vector<double>& conn = b.conn;
  std::vector<int>& touched = b.touched;
  std::vector<double>& lmax = b.lmax;

  double cut = cut_weight(g, part);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool moved_any = false;
    for (NodeId v = 0; v < n; ++v) {
      // Connectivity of v to each neighboring part.
      for (const int q : touched) conn[static_cast<std::size_t>(q)] = 0.0;
      touched.clear();
      for (const graph::EdgeId e : g.incident(v)) {
        const int q = part[g.other(e, v)];
        if (conn[static_cast<std::size_t>(q)] == 0.0) touched.push_back(q);
        conn[static_cast<std::size_t>(q)] += g.edge(e).weight;
      }
      const int cur = part[v];
      const double internal = conn[static_cast<std::size_t>(cur)];
      const bool overweight =
          weight[static_cast<std::size_t>(cur)] > lmax[static_cast<std::size_t>(cur)];
      int best = cur;
      double best_gain = overweight ? -std::numeric_limits<double>::infinity() : 0.0;
      for (const int q : touched) {
        if (q == cur) continue;
        if (weight[static_cast<std::size_t>(q)] + g.node_weight(v) >
            lmax[static_cast<std::size_t>(q)]) {
          continue;
        }
        const double gain = conn[static_cast<std::size_t>(q)] - internal;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = q;
        }
      }
      // Active rebalancing: an overweight part evicts even when no neighbor
      // part helps the cut — fall back to the part with most relative
      // headroom (fill fraction of its target).
      if (overweight && best == cur) {
        const auto fill = [&](std::size_t q) {
          return weight[q] / std::max(targets[q], 1e-12);
        };
        int lightest = cur;
        for (std::size_t q = 0; q < k; ++q) {
          if (fill(q) < fill(static_cast<std::size_t>(lightest))) {
            lightest = static_cast<int>(q);
          }
        }
        if (lightest != cur &&
            weight[static_cast<std::size_t>(lightest)] + g.node_weight(v) <=
                lmax[static_cast<std::size_t>(lightest)]) {
          best = lightest;
          best_gain = conn[static_cast<std::size_t>(lightest)] - internal;
        }
      }
      if (best != cur) {
        weight[static_cast<std::size_t>(cur)] -= g.node_weight(v);
        weight[static_cast<std::size_t>(best)] += g.node_weight(v);
        part[v] = best;
        cut -= best_gain;
        moved_any = true;
      }
    }
    if (!moved_any) break;
  }
  return cut;
}

}  // namespace sc::partition
