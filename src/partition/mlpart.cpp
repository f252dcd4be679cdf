#include "partition/mlpart.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "analysis/validate.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "partition/matching.hpp"
#include "partition/metrics.hpp"
#include "partition/refine.hpp"
#include "partition/workspace.hpp"

namespace sc::partition {

namespace {

using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedGraph;

std::atomic<ThreadPool*> g_bisection_pool{nullptr};

ThreadPool& bisection_pool() {
  ThreadPool* pool = g_bisection_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : ThreadPool::global();
}

// ---------------------------------------------------------------------------
// Every intermediate of the multilevel algorithm (coarsening levels, bisection
// jobs and scratch, induced subgraphs, the uncoarsening double buffer) is
// reused from a per-thread PartitionWorkspace (DESIGN.md §5.4), so after
// warm-up at a given graph shape a partition allocates only its result.
// ---------------------------------------------------------------------------

/// Induced subgraph over `keep` (in order), built into `out` via
/// WeightedGraph::rebuild; sub node i is keep[i].
// sc-lint: hot-path
void induce_into(const WeightedGraph& g, const std::vector<NodeId>& keep,
                 PartitionWorkspace& ws, WeightedGraph& out) {
  SC_ASSERT(!keep.empty(), "cannot induce an empty subgraph");
  ws.to_sub.assign(g.num_nodes(), kInvalidNode);
  ws.weight_buf.clear();
  if (ws.weight_buf.capacity() < keep.size()) ws.weight_buf.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    // i < keep.size() <= num_nodes, already inside the 32-bit id space.
    ws.to_sub[keep[i]] = static_cast<NodeId>(i);  // sc-lint: allow(unchecked-id-narrowing)
    ws.weight_buf.push_back(g.node_weight(keep[i]));
  }
  ws.edge_buf.clear();
  if (ws.edge_buf.capacity() < g.num_edges()) ws.edge_buf.reserve(g.num_edges());
  for (const WeightedEdge& e : g.edges()) {
    const NodeId a = ws.to_sub[e.a];
    const NodeId b = ws.to_sub[e.b];
    if (a == kInvalidNode || b == kInvalidNode) continue;
    ws.edge_buf.push_back(WeightedEdge{a, b, e.weight});
  }
  out.rebuild(ws.weight_buf, ws.edge_buf, ws.dedup);
}

/// Greedy region growing: grows part 0 from a random seed toward target0,
/// each step adding the unassigned node most strongly connected to the grown
/// region (lowest id among equals). The choice comes from a lazy max-heap
/// over (connectivity, node id): connectivity only grows and every increase
/// pushes a fresh heap entry, so the freshest entry for a node always
/// surfaces before its stale ones; stale or already-assigned entries are
/// discarded on pop.
// sc-lint: hot-path
void grow_bisection_ws(const WeightedGraph& g, double target0, Rng& rng,
                       std::vector<int>& part, BisectScratch& f) {
  const std::size_t n = g.num_nodes();
  part.assign(n, 1);
  f.conn.assign(n, 0.0);
  f.in0.assign(n, 0);

  // (conn, id) max-heap over FRONTIER candidates only: higher conn first,
  // lower id first among equals. Non-frontier unassigned nodes all share
  // conn == 0 and lose to any frontier node (edge weights are positive), so
  // they are chosen only when the frontier is empty — and then the lowest
  // unassigned id, which the monotone `fallback` cursor yields.
  const auto lower_priority = [](const std::pair<double, NodeId>& a,
                                 const std::pair<double, NodeId>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  f.grow_heap.clear();
  NodeId fallback = 0;

  double w0 = 0.0;
  // rng.index(n) < n, already inside the 32-bit id space.
  NodeId seed = static_cast<NodeId>(rng.index(n));  // sc-lint: allow(unchecked-id-narrowing)
  for (;;) {
    part[seed] = 0;
    f.in0[seed] = 1;
    w0 += g.node_weight(seed);
    if (w0 >= target0) break;
    for (const graph::EdgeId e : g.incident(seed)) {
      const NodeId u = g.other(e, seed);
      if (f.in0[u] == 0) {
        f.conn[u] += g.edge(e).weight;
        f.grow_heap.emplace_back(f.conn[u], u);
        std::push_heap(f.grow_heap.begin(), f.grow_heap.end(), lower_priority);
      }
    }
    NodeId best = kInvalidNode;
    while (!f.grow_heap.empty()) {
      const auto [c, v] = f.grow_heap.front();
      // A frontier entry with conn 0 ties with non-frontier nodes; route it
      // through the lowest-id fallback instead of trusting heap order.
      // (Possible only with zero-weight edges.)
      if (c == 0.0) break;
      std::pop_heap(f.grow_heap.begin(), f.grow_heap.end(), lower_priority);
      f.grow_heap.pop_back();
      if (f.in0[v] != 0 || c != f.conn[v]) continue;  // assigned or stale
      best = v;
      break;
    }
    if (best == kInvalidNode) {
      // Frontier empty (disconnected remainder or zero-weight ties): lowest
      // unassigned id among the all-zero-conn nodes.
      while (fallback < n && f.in0[fallback] != 0) ++fallback;
      if (fallback >= n) break;  // everything assigned
      best = fallback;  // already a NodeId; no narrowing
    }
    seed = best;
  }
}

/// Best of `trials` grown-and-FM-refined bisections, kept in f.part via
/// buffer swap: lower cut wins, ties go to the better balance against
/// target0.
// sc-lint: hot-path
void bisect_ws(const WeightedGraph& g, double target0, double eps, std::size_t trials,
               std::size_t refine_passes, Rng& rng, BisectScratch& f) {
  double best_cut = std::numeric_limits<double>::infinity();
  double best_bal = std::numeric_limits<double>::infinity();
  fm_refine_bind(g);  // every trial refines the same graph
  for (std::size_t t = 0; t < std::max<std::size_t>(1, trials); ++t) {
    grow_bisection_ws(g, target0, rng, f.trial, f);
    const double cut = fm_refine_bisection(g, f.trial, target0, eps, refine_passes);
    double w0 = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (f.trial[v] == 0) w0 += g.node_weight(v);
    }
    const double bal = std::abs(w0 - target0);
    if (cut < best_cut - 1e-12 || (std::abs(cut - best_cut) <= 1e-12 && bal < best_bal)) {
      best_cut = cut;
      best_bal = bal;
      std::swap(f.part, f.trial);
    }
  }
}

// ---------------------------------------------------------------------------
// Recursive bisection, level by level (DESIGN.md §5.5). Once a node of the
// bisection tree has been bisected, its two subtrees are fully independent —
// disjoint node sets, disjoint label ranges, and private split() RNG streams —
// so each level's frontier fans out through parallel_for. The frontier's
// jobs (induced subgraphs, to_parent lists) live in the calling thread's
// PartitionWorkspace and are reused from call to call; the scratch of each
// bisection step comes from the thread that runs it. Output writes touch
// only a job's own nodes, so no two jobs ever store to the same element.
// ---------------------------------------------------------------------------

/// What every job of one bisection call shares. parallel_for's body captures
/// only a reference to it, so the std::function it builds stays in its local
/// buffer and a call that runs inline allocates nothing.
struct Bisection {
  std::span<const double> fractions;
  double eps;
  std::size_t trials;
  std::size_t refine_passes;
  std::vector<int>& out;
  PartitionWorkspace& ws;  ///< the caller's: holds the frontier and children
};

/// Turns one side of `parent`'s bisection into a child job over the parts
/// [frac_lo, frac_hi), or labels the side directly when that is one part.
void emit_child(const Bisection& b, const BisectJob& parent,
                const std::vector<NodeId>& side, std::size_t frac_lo, std::size_t frac_hi,
                int label_base, const Rng& rng, PartitionWorkspace& scratch,
                BisectJob& child) {
  if (frac_hi - frac_lo == 1) {
    for (const NodeId v : side) b.out[parent.to_parent[v]] = label_base;
    return;
  }
  induce_into(*parent.graph, side, scratch, child.owned);
  child.graph = &child.owned;
  child.to_parent.resize(side.size());
  for (std::size_t i = 0; i < side.size(); ++i) child.to_parent[i] = parent.to_parent[side[i]];
  child.frac_lo = frac_lo;
  child.frac_hi = frac_hi;
  child.label_base = label_base;
  child.rng = rng;
}

/// One bisection step of frontier job `i`: its children go to child slots
/// 2i and 2i + 1 (a slot left without a child has graph == nullptr).
void bisect_job(const Bisection& b, std::size_t i) {
  BisectJob& jb = *b.ws.frontier[i];
  BisectJob& c0 = *b.ws.children[2 * i];
  BisectJob& c1 = *b.ws.children[2 * i + 1];
  c0.graph = nullptr;
  c1.graph = nullptr;
  const WeightedGraph& g = *jb.graph;
  const std::size_t k = jb.frac_hi - jb.frac_lo;  // >= 2: one part is labelled directly
  PartitionWorkspace& scratch = PartitionWorkspace::local();
  BisectScratch& f = scratch.bisect;
  const std::size_t k1 = k / 2;
  double frac_total = 0.0, frac_first = 0.0;
  for (std::size_t q = 0; q < k; ++q) {
    frac_total += b.fractions[jb.frac_lo + q];
    if (q < k1) frac_first += b.fractions[jb.frac_lo + q];
  }
  const double target0 = g.total_node_weight() * frac_first / frac_total;

  bisect_ws(g, target0, b.eps, b.trials, b.refine_passes, jb.rng, f);

  f.side0.clear();
  f.side1.clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    (f.part[v] == 0 ? f.side0 : f.side1).push_back(v);
  }
  // Degenerate split (tiny graphs): fall back to round-robin.
  if (f.side0.empty() || f.side1.empty()) {
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      b.out[jb.to_parent[v]] = jb.label_base + static_cast<int>(v % k);
    }
    return;
  }
  // Each subtree's stream depends only on its path from the root, never on
  // how its siblings are scheduled, so results are thread-count invariant.
  const Rng rng0 = jb.rng.split();
  const Rng rng1 = jb.rng.split();
  emit_child(b, jb, f.side0, jb.frac_lo, jb.frac_lo + k1, jb.label_base, rng0, scratch, c0);
  emit_child(b, jb, f.side1, jb.frac_lo + k1, jb.frac_hi,
             jb.label_base + static_cast<int>(k1), rng1, scratch, c1);
}

/// Recursive bisection of `g` into fractions.size() >= 2 parts, with part
/// weights proportional to `fractions`: a level-synchronous BFS over the
/// bisection tree whose frontier fans out via parallel_for.
void recursive_bisect(ThreadPool& pool, const WeightedGraph& g,
                      std::span<const double> fractions, double eps, std::size_t trials,
                      std::size_t refine_passes, Rng rng, std::vector<int>& out,
                      PartitionWorkspace& ws) {
  SC_ASSERT(fractions.size() >= 2, "recursive bisection needs at least two parts");
  const Bisection b{fractions, eps, trials, refine_passes, out, ws};
  PartitionWorkspace::grow_jobs(ws.frontier, 1);
  BisectJob& root = *ws.frontier[0];
  root.graph = &g;
  root.to_parent.resize(g.num_nodes());
  std::iota(root.to_parent.begin(), root.to_parent.end(), NodeId{0});
  root.frac_lo = 0;
  root.frac_hi = fractions.size();
  root.label_base = 0;
  root.rng = rng;
  for (std::size_t live = 1; live > 0;) {
    PartitionWorkspace::grow_jobs(ws.children, 2 * live);
    // A caller on a pool worker (every reward evaluation) runs the level
    // inline, without allocating; a top-level caller's fan-out allocates its
    // claim state and queued helper tasks.
    pool.parallel_for(live, [&b](std::size_t i) { bisect_job(b, i); });  // sc-lint: allow(transitive-alloc)
    // Compact the emitted children to the front; they are the next frontier.
    std::size_t next = 0;
    for (std::size_t j = 0; j < 2 * live; ++j) {
      if (ws.children[j]->graph != nullptr) std::swap(ws.children[j], ws.children[next++]);
    }
    std::swap(ws.frontier, ws.children);
    live = next;
  }
}

/// One multilevel attempt (coarsen, initial recursive bisection, uncoarsen
/// with k-way refinement); the result lives in ws.part_a (double-buffered
/// against ws.part_b during uncoarsening).
// sc-lint: hot-path
const std::vector<int>& partition_attempt_ws(const WeightedGraph& g,
                                             const std::vector<double>& fractions,
                                             std::uint64_t seed,
                                             const PartitionOptions& opts,
                                             PartitionWorkspace& ws) {
  const std::size_t k = fractions.size();

  Rng rng(seed);
  const std::size_t stop =
      opts.coarsen_until > 0 ? opts.coarsen_until : std::max<std::size_t>(30, 8 * k);

  // Cap matched-pair weight at 3x the average final coarse node so a heavy
  // supernode cannot snowball level after level (see heavy_edge_matching_ws).
  const double match_cap = 3.0 * g.total_node_weight() / static_cast<double>(stop);

  // ---- Coarsening (levels retained in the workspace) ----------------------
  std::size_t num_levels = 0;
  const WeightedGraph* cur = &g;
  while (cur->num_nodes() > stop) {
    heavy_edge_matching_ws(*cur, rng, ws.match, match_cap);
    PartitionWorkspace::Level& lvl = ws.level(num_levels);
    contract_matching_ws(*cur, ws.match.match, ws.weight_buf, ws.edge_buf, ws.dedup,
                         lvl.map, lvl.coarse);
    // Stop if matching no longer shrinks the graph meaningfully.
    if (lvl.coarse.num_nodes() >= cur->num_nodes() * 95 / 100) break;
    cur = &lvl.coarse;
    ++num_levels;
  }

  // Per-part absolute weight targets for refinement (capacity-proportional).
  double frac_total = 0.0;
  for (const double f : fractions) frac_total += f;
  const auto targets_for = [&](const WeightedGraph& wg) -> const std::vector<double>& {
    ws.targets.resize(k);
    for (std::size_t q = 0; q < k; ++q) {
      ws.targets[q] = wg.total_node_weight() * fractions[q] / frac_total;
    }
    return ws.targets;
  };

  // ---- Initial partition on the coarsest graph ----------------------------
  ws.part_a.assign(cur->num_nodes(), 0);
  recursive_bisect(bisection_pool(), *cur, std::span<const double>(fractions),
                   opts.imbalance_eps, opts.bisection_trials, opts.refine_passes, rng.split(),
                   ws.part_a, ws);
  greedy_kway_refine(*cur, ws.part_a, targets_for(*cur), opts.imbalance_eps,
                     opts.refine_passes);

  // ---- Uncoarsening with refinement ---------------------------------------
  for (std::size_t lvl = num_levels; lvl > 0; --lvl) {
    const PartitionWorkspace::Level& c = *ws.levels[lvl - 1];
    const WeightedGraph& fine = (lvl == 1) ? g : ws.levels[lvl - 2]->coarse;
    ws.part_b.resize(fine.num_nodes());
    for (NodeId v = 0; v < fine.num_nodes(); ++v) ws.part_b[v] = ws.part_a[c.map[v]];
    greedy_kway_refine(fine, ws.part_b, targets_for(fine), opts.imbalance_eps,
                       opts.refine_passes);
    std::swap(ws.part_a, ws.part_b);
  }
  return ws.part_a;
}

}  // namespace

ThreadPool* set_parallel_bisection_pool(ThreadPool* pool) {
  return g_bisection_pool.exchange(pool, std::memory_order_acq_rel);
}

std::vector<int> MultilevelPartitioner::partition(const WeightedGraph& g,
                                                  std::size_t k) const {
  SC_CHECK(k >= 1, "k must be positive");
  // Reuse the workspace's fraction buffer for the uniform fractions (nothing
  // below mutates it).
  PartitionWorkspace& ws = PartitionWorkspace::local();
  ws.fractions.assign(k, 1.0);
  return partition(g, ws.fractions);
}

std::vector<int> MultilevelPartitioner::partition(
    const WeightedGraph& g, const std::vector<double>& fractions) const {
  SC_CHECK(!fractions.empty(), "need at least one part");
  for (const double f : fractions) {
    SC_CHECK(f > 0.0, "part fractions must be positive");
  }
  if (fractions.size() == 1) return std::vector<int>(g.num_nodes(), 0);
  // Restarts: the lowest cut wins, ties go to the better balance. The
  // returned vector is the one API-boundary allocation (DESIGN.md §5.4).
  PartitionWorkspace& ws = PartitionWorkspace::local();
  const std::size_t k = fractions.size();
  double best_cut = std::numeric_limits<double>::infinity();
  double best_imb = std::numeric_limits<double>::infinity();
  const std::size_t restarts = std::max<std::size_t>(1, opts_.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    const std::vector<int>& part =
        partition_attempt_ws(g, fractions, opts_.seed + r * 7919, opts_, ws);
    const double cut = cut_weight(g, part);
    // imbalance() without its part_weights() temporary: same accumulation
    // order, max_element over the same values.
    ws.part_w.assign(k, 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ws.part_w[static_cast<std::size_t>(part[v])] += g.node_weight(v);
    }
    const double avg = g.total_node_weight() / static_cast<double>(k);
    const double imb =
        avg <= 0.0 ? 1.0 : *std::max_element(ws.part_w.begin(), ws.part_w.end()) / avg;
    if (cut < best_cut - 1e-12 ||
        (std::abs(cut - best_cut) <= 1e-12 && imb < best_imb)) {
      best_cut = cut;
      best_imb = imb;
      ws.best_part.assign(part.begin(), part.end());
    }
  }
  // Checked-build contract: every node assigned to an existing part.
  SC_VALIDATE_AT(Deep,
                 analysis::validate_partition(ws.best_part, g.num_nodes(), fractions.size()));
  return std::vector<int>(ws.best_part.begin(), ws.best_part.end());
}

std::vector<NodeId> MultilevelPartitioner::coarsen_to(const WeightedGraph& g,
                                                      std::size_t target_nodes) const {
  SC_CHECK(target_nodes >= 1, "target_nodes must be positive");
  Rng rng(opts_.seed);

  std::vector<NodeId> map(g.num_nodes());
  std::iota(map.begin(), map.end(), NodeId{0});

  // Cap matched-pair weight at 3x the average target coarse node. Deep
  // coarsening (1M -> thousands) without the cap degenerates into one
  // supernode absorbing nearly the whole graph: its contracted edges are the
  // heaviest, so it wins a match every level, shrinking the graph by one
  // node per level — quadratic time and a useless coarse graph.
  const double match_cap = 3.0 * g.total_node_weight() / static_cast<double>(target_nodes);

  // The matching/contraction pair reuses per-thread scratch and the coarse
  // graphs ping-pong through two retained levels, so a deep coarsen (1M ->
  // thousands, 100+ levels) allocates nothing per level.
  PartitionWorkspace& ws = PartitionWorkspace::local();
  PartitionWorkspace::Level& a = ws.level(0);
  PartitionWorkspace::Level& b = ws.level(1);
  const WeightedGraph* cur = &g;
  bool into_a = true;
  while (cur->num_nodes() > target_nodes) {
    heavy_edge_matching_ws(*cur, rng, ws.match, match_cap);
    PartitionWorkspace::Level& lvl = into_a ? a : b;
    contract_matching_ws(*cur, ws.match.match, ws.weight_buf, ws.edge_buf, ws.dedup,
                         lvl.map, lvl.coarse);
    if (lvl.coarse.num_nodes() == cur->num_nodes()) break;  // no progress
    for (NodeId v = 0; v < map.size(); ++v) map[v] = lvl.map[map[v]];
    cur = &lvl.coarse;
    into_a = !into_a;
  }
  return map;
}

}  // namespace sc::partition
