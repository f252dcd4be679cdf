// huge-stream: the out-of-core tier. Set-up writes the fixed Setting::Huge
// graph (kCatalogueSeed, about 1.07M nodes) to disk; each measured pass runs
// the public pipeline streaming_read_csr -> compute_csr_load ->
// streaming_allocate on a warm page cache. graph ingest and partition do all
// the work; gnn and serve none. One graph's bottleneck throughput moves by
// tens of percent between generator seeds, so --seed does not change this
// workload's input.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "counters.hpp"
#include "gen/dataset.hpp"
#include "graph/io.hpp"
#include "graph/streaming.hpp"
#include "partition/streaming.hpp"
#include "rl/rollout.hpp"
#include "sim/fluid.hpp"
#include "workloads.hpp"

namespace sc::bench {

namespace {

/// Shards pinned so placements do not depend on the pool size.
constexpr std::size_t kShards = 8;
/// Fewest passes per window; the median needs a few even on a slow host.
constexpr std::size_t kMinPasses = 3;

gen::GeneratorConfig huge_config(bool smoke) {
  gen::GeneratorConfig cfg = gen::setting_config(gen::Setting::Huge);
  if (smoke) {
    cfg.topology.min_nodes = 24'000;
    cfg.topology.max_nodes = 26'000;
  }
  return cfg;
}

std::vector<graph::StreamGraph> generate(const RunConfig& cfg) {
  return gen::generate_graphs(huge_config(cfg.smoke), 1, kCatalogueSeed, "huge/");
}

struct Pass {
  double total_s = 0.0;
  double ingest_s = 0.0, ingest_cpu_s = 0.0;
  double load_s = 0.0;
  double streaming_s = 0.0, streaming_cpu_s = 0.0;
  std::uint64_t hash = 0;
};

/// Everything one pass produced, kept from the last pass for the checks.
struct PassOutput {
  partition::StreamingIngest ingest;
  graph::CsrLoad load;
  sim::Placement placement;
  partition::StreamingStats stats;
};

Pass run_pass(const std::string& path, const sim::ClusterSpec& spec, PassOutput& out) {
  out = PassOutput{};  // one pass's data alive at a time, as in a real run
  Pass p;
  Span pass_span("huge.pass");
  const auto t0 = Clock::now();
  double cpu = process_cpu_seconds();
  {
    Span span("graph.ingest");
    out.ingest = partition::streaming_read_csr(path);
  }
  p.ingest_s = seconds_since(t0);
  p.ingest_cpu_s = process_cpu_seconds() - cpu;
  const auto t1 = Clock::now();
  {
    Span span("graph.load");
    out.load = graph::compute_csr_load(out.ingest.graph);
  }
  p.load_s = seconds_since(t1);
  const auto t2 = Clock::now();
  cpu = process_cpu_seconds();
  {
    Span span("partition.streaming");
    partition::StreamingOptions opts;
    opts.num_shards = kShards;
    opts.undirected_degree = &out.ingest.undirected_degree;
    out.stats = {};
    out.placement = partition::streaming_allocate(out.ingest.graph, spec, opts, &out.stats);
  }
  p.streaming_s = seconds_since(t2);
  p.streaming_cpu_s = process_cpu_seconds() - cpu;
  p.total_s = seconds_since(t0);
  p.hash = fnv_labels(out.placement);
  return p;
}

/// The cut recomputed from the CSR, independently of csr_cut_weight.
double recompute_cut(const graph::CsrGraph& g, const graph::CsrLoad& load,
                     const sim::Placement& p) {
  double cut = 0.0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    const auto targets = g.out(id);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (p[v] != p[targets[i]]) cut += load.edge_traffic[g.out_offset(id) + i];
    }
  }
  return cut;
}

}  // namespace

WorkloadResult run_huge_stream(const RunConfig& cfg) {
  WorkloadResult r;
  const sim::ClusterSpec spec = rl::to_cluster_spec(huge_config(cfg.smoke).workload);
  const std::string path = cfg.workdir + "/huge.txt";

  std::vector<double> setup_s;
  double generate_s = 0.0;
  std::size_t nodes = 0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    {
      const std::vector<graph::StreamGraph> graphs = generate(cfg);
      nodes = graphs[0].num_nodes();
      graph::save_graphs(path, graphs);
    }
    setup_s.push_back(seconds_since(t0));
    generate_s = setup_s.back();
  }

  // Untraced passes for the end-to-end metrics; in a traced run, traced
  // passes alternate with them for twice as long.
  std::vector<Pass> plain, traced;
  PassOutput out;
  const auto w0 = Clock::now();
  const double window = cfg.trace ? 2.0 * cfg.seconds : cfg.seconds;
  // One untimed pass first (inside the window's time): it warms the
  // allocator, the pool threads and the CPU.
  const Pass warmup = run_pass(path, spec, out);
  const bool rss_ok = reset_peak_rss();
  while (seconds_since(w0) < window || plain.size() < kMinPasses ||
         (cfg.trace && traced.size() < kMinPasses)) {
    const bool trace_this = cfg.trace && plain.size() > traced.size();
    trace::record_spans(trace_this);
    (trace_this ? traced : plain).push_back(run_pass(path, spec, out));
    trace::record_spans(false);
  }
  const double peak_mb = rss_ok ? peak_rss_mb() : 0.0;
  r.attempted = 1 + plain.size() + traced.size();
  r.check(warmup.hash == plain[0].hash, "placement hash differs across passes");

  // Correctness: every node placed on a real device, the same placement on
  // every pass, and the cut recomputed from the CSR.
  const graph::CsrGraph& g = out.ingest.graph;
  r.check(g.num_nodes() == nodes, "CSR node count differs from the generated graph");
  r.check(out.placement.size() == g.num_nodes(), "placement size mismatch");
  r.check(std::all_of(out.placement.begin(), out.placement.end(),
                      [&](int d) {
                        return d >= 0 && static_cast<std::size_t>(d) < spec.num_devices;
                      }),
          "device id out of range");
  for (const Pass& p : plain) {
    r.check(p.hash == plain[0].hash, "placement hash differs across passes");
  }
  for (const Pass& p : traced) {
    r.check(p.hash == plain[0].hash, "traced pass changed the placement");
  }
  const double cut = partition::csr_cut_weight(g, out.load, out.placement);
  const double cut_check = recompute_cut(g, out.load, out.placement);
  r.check(std::abs(cut - cut_check) <= 1e-9 * std::max(1.0, std::abs(cut)),
          "csr_cut_weight disagrees with the recomputed cut");
  const double cut_fraction = cut / out.load.total_traffic;
  r.hashes["placement"] = hex64(plain[0].hash);
  if (cfg.trace) add_streaming_counters(r, out.ingest, out.stats);
  const sim::Placement placement = std::move(out.placement);
  out = PassOutput{};

  // Placement quality: relative throughput of the streamed placement, from
  // the fluid simulator over the regenerated graph (outside the window).
  double relative = 0.0;
  {
    const std::vector<graph::StreamGraph> graphs = generate(cfg);
    const sim::FluidSimulator simulator(graphs[0], spec);
    relative = simulator.relative_throughput(placement);
  }
  r.check(relative > 0.0 && relative <= 1.0, "relative throughput outside (0, 1]");
  std::remove(path.c_str());

  const auto med = [](const std::vector<Pass>& ps, double Pass::*f) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(p.*f);
    return median(v);
  };
  std::vector<double> pass_ms;
  for (const Pass& p : plain) pass_ms.push_back(p.total_s * 1e3);
  const double p50_ms = percentile(pass_ms, 0.5);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("throughput", static_cast<double>(nodes) / (p50_ms / 1e3), "1/s");
  r.e2e("p50_ms", p50_ms, "ms");
  r.e2e("p99_ms", percentile(pass_ms, 0.99), "ms");
  r.e2e("peak_rss_mb", peak_mb, "MiB");
  r.e2e("mean_relative", relative, "ratio");
  r.e2e("cut_fraction", cut_fraction, "ratio");
  if (!cfg.trace) return r;

  const double threads = static_cast<double>(cfg.threads);
  r.layer("trace_overhead",
          trace_overhead(med(plain, &Pass::total_s), med(traced, &Pass::total_s),
                         /*higher_is_better=*/false),
          "ratio");
  r.layer("gen.generate_s", generate_s, "s");
  r.layer("graph.ingest_s", percentile(trace::durations_ms("graph.ingest"), 0.5) / 1e3, "s");
  r.layer("graph.ingest_cpu_util",
          med(traced, &Pass::ingest_cpu_s) / (med(traced, &Pass::ingest_s) * threads), "ratio");
  r.layer("graph.load_s", percentile(trace::durations_ms("graph.load"), 0.5) / 1e3, "s");
  r.layer("partition.streaming_s",
          percentile(trace::durations_ms("partition.streaming"), 0.5) / 1e3, "s");
  r.layer("partition.streaming_cpu_util",
          med(traced, &Pass::streaming_cpu_s) / (med(traced, &Pass::streaming_s) * threads),
          "ratio");
  return r;
}

}  // namespace sc::bench
