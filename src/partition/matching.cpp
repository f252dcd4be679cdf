#include "partition/matching.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace sc::partition {

using graph::kInvalidNode;
using graph::NodeId;
using graph::WeightedEdge;
using graph::WeightedGraph;

// sc-lint: hot-path
void heavy_edge_matching_ws(const WeightedGraph& g, Rng& rng, MatchScratch& scratch,
                            double max_weight) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  scratch.match.assign(n, kInvalidNode);

  // Shuffle, then order heaviest first with the shuffled order breaking
  // weight ties. A stable_sort would allocate a merge buffer, so this sorts
  // the equivalent total order (weight desc, shuffled rank asc) in place — a
  // total order makes std::sort deterministic. Unlike visit-order HEM, the
  // global order guarantees the heaviest edge in any neighbourhood is
  // matched.
  scratch.order.resize(m);
  std::iota(scratch.order.begin(), scratch.order.end(), graph::EdgeId{0});
  rng.shuffle(scratch.order);
  scratch.rank.resize(m);
  for (std::uint32_t i = 0; i < m; ++i) scratch.rank[scratch.order[i]] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](graph::EdgeId x, graph::EdgeId y) {
              if (g.edge(x).weight != g.edge(y).weight) {
                return g.edge(x).weight > g.edge(y).weight;
              }
              return scratch.rank[x] < scratch.rank[y];
            });

  for (const graph::EdgeId e : scratch.order) {
    const NodeId a = g.edge(e).a;
    const NodeId b = g.edge(e).b;
    if (scratch.match[a] != kInvalidNode || scratch.match[b] != kInvalidNode) continue;
    if (g.node_weight(a) + g.node_weight(b) > max_weight) continue;
    scratch.match[a] = b;
    scratch.match[b] = a;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (scratch.match[v] == kInvalidNode) scratch.match[v] = v;  // stays single
  }
}

// sc-lint: hot-path
void contract_matching_ws(const WeightedGraph& g, const std::vector<NodeId>& match,
                          std::vector<double>& weight_buf,
                          std::vector<WeightedEdge>& edge_buf,
                          graph::EdgeDedupScratch& dedup, std::vector<NodeId>& out_map,
                          WeightedGraph& out_coarse) {
  SC_CHECK(match.size() == g.num_nodes(), "matching size mismatch");
  const std::size_t n = g.num_nodes();

  out_map.assign(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (out_map[v] != kInvalidNode) continue;
    const NodeId u = match[v];
    SC_CHECK(u < n && (match[u] == v || u == v), "inconsistent matching at node " << v);
    out_map[v] = next;
    if (u != v) out_map[u] = next;
    ++next;
  }

  weight_buf.assign(next, 0.0);
  for (NodeId v = 0; v < n; ++v) weight_buf[out_map[v]] += g.node_weight(v);

  edge_buf.clear();
  if (edge_buf.capacity() < g.num_edges()) edge_buf.reserve(g.num_edges());
  for (const WeightedEdge& e : g.edges()) {
    const NodeId a = out_map[e.a];
    const NodeId b = out_map[e.b];
    if (a == b) continue;
    edge_buf.push_back(WeightedEdge{a, b, e.weight});
  }
  out_coarse.rebuild(weight_buf, edge_buf, dedup);
}

}  // namespace sc::partition
