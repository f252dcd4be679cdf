#include "graph/contraction.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/validate.hpp"
#include "common/error.hpp"
#include "graph/union_find.hpp"

namespace sc::graph {

namespace contraction_scratch {

ContractionScratch& local() {
  thread_local ContractionScratch scratch;
  return scratch;
}

}  // namespace contraction_scratch

namespace {

/// Turns the components of scratch.dsu into `out`: coarse ids in first-seen
/// order, flat groups, summed CPU weights and merged coarse edges. Shared by
/// the mask and the grouping entry points.
void finish_into(const StreamGraph& g, const LoadProfile& profile,
                 ContractionScratch& scratch, Coarsening& out) {
  const std::size_t n = g.num_nodes();
  // Compact DSU roots to dense coarse ids in first-seen order.
  out.node_map.resize(n);
  scratch.root_to_id.assign(n, kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto root = scratch.dsu.find(v);
    if (scratch.root_to_id[root] == kInvalidNode) scratch.root_to_id[root] = next++;
    out.node_map[v] = scratch.root_to_id[root];
  }

  // Flat groups via counting sort, members in ascending id order;
  // group_offsets[c] doubles as the fill cursor for group c and is restored
  // by the final shift, so no cursor buffer is needed.
  out.group_offsets.assign(next + 1, 0);
  for (NodeId v = 0; v < n; ++v) ++out.group_offsets[out.node_map[v] + 1];
  for (std::size_t i = 0; i < next; ++i) out.group_offsets[i + 1] += out.group_offsets[i];
  out.group_members.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.group_members[out.group_offsets[out.node_map[v]]++] = v;
  }
  for (std::size_t i = next; i > 0; --i) out.group_offsets[i] = out.group_offsets[i - 1];
  out.group_offsets[0] = 0;

  scratch.weights.assign(next, 0.0);
  for (NodeId v = 0; v < n; ++v) scratch.weights[out.node_map[v]] += profile.node_cpu[v];

  scratch.coarse_edges.clear();
  if (scratch.coarse_edges.capacity() < g.num_edges()) {
    scratch.coarse_edges.reserve(g.num_edges());
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& ch = g.edge(e);
    const NodeId a = out.node_map[ch.src];
    const NodeId b = out.node_map[ch.dst];
    if (a == b) continue;  // internal edge vanished
    scratch.coarse_edges.push_back(WeightedEdge{a, b, profile.edge_traffic[e]});
  }
  out.coarse.rebuild(scratch.weights, scratch.coarse_edges, scratch.dedup);
  // Checked builds validate the full contraction contract (surjective +
  // idempotent map, no self-loop supernodes, feature-mass conservation) at
  // the point of production, covering every entry point.
  SC_VALIDATE_AT(Deep, analysis::validate(out, g, profile));
}

}  // namespace

std::vector<int> Coarsening::expand_placement(const std::vector<int>& coarse_placement) const {
  SC_CHECK(coarse_placement.size() == num_coarse_nodes(),
           "coarse placement size " << coarse_placement.size() << " != coarse nodes "
                                    << num_coarse_nodes());
  std::vector<int> fine(node_map.size());
  for (std::size_t v = 0; v < node_map.size(); ++v) {
    fine[v] = coarse_placement[node_map[v]];
  }
  return fine;
}

Coarsening contract(const StreamGraph& g, const LoadProfile& profile,
                    const std::vector<bool>& mask) {
  Coarsening out;
  contract_into(g, profile, mask, contraction_scratch::local(), out);
  return out;
}

// sc-lint: hot-path
void contract_into(const StreamGraph& g, const LoadProfile& profile,
                   const std::vector<bool>& mask, ContractionScratch& scratch,
                   Coarsening& out) {
  SC_CHECK(mask.size() == g.num_edges(),
           "mask size " << mask.size() << " != edge count " << g.num_edges());
  const std::size_t n = g.num_nodes();
  scratch.dsu.reset(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (mask[e]) scratch.dsu.unite(g.edge(e).src, g.edge(e).dst);
  }

  finish_into(g, profile, scratch, out);
}

Coarsening contract_by_groups(const StreamGraph& g, const LoadProfile& profile,
                              const std::vector<NodeId>& group_of_node) {
  SC_CHECK(group_of_node.size() == g.num_nodes(), "grouping size mismatch");
  ContractionScratch& scratch = contraction_scratch::local();
  scratch.dsu.reset(g.num_nodes());
  // Unite each node with the first-seen representative of its group label.
  std::vector<NodeId> rep;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId label = group_of_node[v];
    if (label >= rep.size()) rep.resize(label + 1, kInvalidNode);
    if (rep[label] == kInvalidNode) {
      rep[label] = v;
    } else {
      scratch.dsu.unite(rep[label], v);
    }
  }
  Coarsening out;
  finish_into(g, profile, scratch, out);
  return out;
}

std::vector<bool> mask_from_groups(const StreamGraph& g, const LoadProfile& profile,
                                   const std::vector<NodeId>& group_of_node) {
  SC_CHECK(group_of_node.size() == g.num_nodes(), "grouping size mismatch");
  // Kruskal restricted to intra-group edges, heaviest first: this selects,
  // for each group with k weakly connected members, the k-1 heaviest edges
  // forming a maximum spanning forest — exactly the paper's recipe for
  // inferring which edges Metis collapsed.
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::stable_sort(order.begin(), order.end(), [&](EdgeId x, EdgeId y) {
    return profile.edge_traffic[x] > profile.edge_traffic[y];
  });

  std::vector<bool> mask(g.num_edges(), false);
  UnionFind dsu(g.num_nodes());
  for (const EdgeId e : order) {
    const Channel& c = g.edge(e);
    if (group_of_node[c.src] != group_of_node[c.dst]) continue;
    if (dsu.unite(c.src, c.dst)) mask[e] = true;
  }
  return mask;
}

}  // namespace sc::graph
