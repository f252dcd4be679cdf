// sc_allocate — allocate stream graphs onto devices with a trained model
// (or plain Metis), printing the placement and its predicted performance.
//
//   sc_allocate --data graphs.txt [--model model.ckpt] [--setting medium]
//               [--method coarsen|metis|oracle] [--best-of K] [--index N]
//               [--dot out.dot]
//
// Streaming mode (Huge tier, DESIGN.md §9): --streaming ingests the first
// graph of --data through the bounded-buffer CSR reader and allocates it
// with the out-of-core streaming partitioner — no full StreamGraph is ever
// materialized, so 1M+-node inputs fit in bounded memory.
#include <fstream>
#include <iostream>

#include "core/allocator.hpp"
#include "core/framework.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "metrics/report.hpp"
#include "partition/streaming.hpp"
#include "tool_common.hpp"

namespace {

// sc-lint: streaming-path
int run_streaming(const sc::Flags& flags) {
  using namespace sc;
  const std::string path = flags.get_string("data", "");
  graph::StreamingReadStats read_stats;
  const graph::CsrGraph g = graph::read_csr(path, &read_stats);
  const sim::ClusterSpec spec = tools::spec_from_flags(flags);

  partition::StreamingOptions opts;
  opts.buffer_nodes =
      static_cast<std::size_t>(flags.get_int("stream-buffer", static_cast<long>(opts.buffer_nodes)));
  opts.num_shards = static_cast<std::size_t>(flags.get_int("shards", 0));
  opts.coarse_target =
      static_cast<std::size_t>(flags.get_int("coarse-target", static_cast<long>(opts.coarse_target)));

  partition::StreamingStats stats;
  const sim::Placement p = partition::streaming_allocate(g, spec, opts, &stats);

  const graph::CsrLoad load = graph::compute_csr_load(g);
  const double cut = partition::csr_cut_weight(g, load, p);
  const double imbalance = partition::csr_imbalance(g, load, p, spec.num_devices);
  std::cout << "graph " << g.name() << ": " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges, csr footprint " << metrics::Table::fmt(
                   static_cast<double>(g.footprint_bytes()) / (1024.0 * 1024.0), 1)
            << " MiB (" << read_stats.chunks << " chunks of "
            << read_stats.buffer_bytes / 1024 << " KiB)\n";
  std::cout << "  shards " << stats.num_shards << ", coarse " << stats.coarse_nodes << "/"
            << stats.coarse_edges << " (cross-shard " << stats.cross_shard_edges
            << "), buffer peak " << stats.buffer_peak << ", evictions " << stats.evictions
            << '\n';
  std::cout << "  cut " << metrics::Table::fmt(cut, 0) << " bytes/s/tuple, imbalance "
            << metrics::Table::fmt(imbalance, 3) << ", devices "
            << sim::devices_used(p) << "/" << spec.num_devices << '\n';
  if (g.num_nodes() <= 64) {
    std::cout << "  placement:";
    for (const int d : p) std::cout << ' ' << d;
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace sc;
  const Flags flags(argc, argv);
  flags.check_unknown(tools::known_flags({"data", "model", "method", "best-of", "index", "dot",
                                          "streaming", "stream-buffer", "shards",
                                          "coarse-target"}));
  configure_threads_from_flags(flags);
  tools::apply_validation_from_flags(flags);
  if (!flags.has("data")) {
    tools::usage(
        "usage: sc_allocate --data <file> [--model <ckpt>] [--setting medium]\n"
        "                   [--method coarsen|metis|oracle] [--best-of K]\n"
        "                   [--index N] [--dot out.dot] [--threads N] [--validate]\n"
        "                   [--streaming [--stream-buffer N] [--shards S]\n"
        "                    [--coarse-target C]]\n");
  }
  if (flags.get_bool("streaming", false)) return run_streaming(flags);
  const auto graphs = graph::load_graphs(flags.get_string("data", ""));
  SC_CHECK(!graphs.empty(), "dataset is empty");
  const auto spec = tools::spec_from_flags(flags);

  const std::string method = flags.get_string("method", flags.has("model") ? "coarsen" : "metis");
  core::CoarsenPartitionFramework fw;
  if (flags.has("model")) fw.load(flags.get_string("model", ""));

  std::unique_ptr<core::Allocator> alloc;
  if (method == "coarsen") {
    SC_CHECK(flags.has("model"), "--method coarsen requires --model");
    alloc = std::make_unique<core::CoarsenAllocator>(
        fw.policy(), fw.placer(), "Coarsen+Metis",
        static_cast<std::size_t>(flags.get_int("best-of", 0)));
  } else if (method == "oracle") {
    alloc = std::make_unique<core::MetisOracleAllocator>();
  } else {
    SC_CHECK(method == "metis", "unknown method '" << method << "'");
    alloc = std::make_unique<core::MetisAllocator>();
  }

  const long index = flags.get_int("index", -1);
  const std::size_t lo = index < 0 ? 0 : static_cast<std::size_t>(index);
  const std::size_t hi = index < 0 ? graphs.size() : lo + 1;
  SC_CHECK(hi <= graphs.size(), "--index out of range");

  for (std::size_t i = lo; i < hi; ++i) {
    const rl::GraphContext ctx(graphs[i], spec);
    const auto p = alloc->allocate(ctx);
    const auto rep = ctx.simulator.report(p);
    std::cout << "graph " << i << " (" << graphs[i].num_nodes() << " nodes): "
              << "throughput " << metrics::Table::fmt(rep.throughput, 0)
              << " tuples/s (" << metrics::Table::pct(rep.relative_throughput)
              << " of source rate), " << rep.devices_used << " devices, latency "
              << metrics::Table::fmt(rep.latency_seconds * 1e3, 2) << " ms\n";
    std::cout << "  placement:";
    for (const int d : p) std::cout << ' ' << d;
    std::cout << '\n';

    if (flags.has("dot") && i == lo) {
      std::ofstream os(flags.get_string("dot", ""));
      SC_CHECK(os.good(), "cannot open DOT output file");
      const auto profile = graph::compute_load_profile(graphs[i]);
      std::vector<graph::NodeId> groups(p.begin(), p.end());
      graph::write_dot(os, graphs[i], &profile, &groups);
      os.flush();
      SC_CHECK(os.good(), "DOT write to '" << flags.get_string("dot", "")
                                           << "' failed (disk full or I/O error?)");
      std::cout << "  DOT written to " << flags.get_string("dot", "") << '\n';
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "sc_allocate: " << e.what() << '\n';
  return 1;
}
