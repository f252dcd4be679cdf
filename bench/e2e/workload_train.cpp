// train-large: REINFORCE on Setting::Large graphs with the Metis placer and
// Metis guidance, then greedy evaluation on held-out Large graphs. This is
// the paper's main setting, and the encoder forward/backward (gnn, nn) plus
// the injected placer (partition) do almost all the work.
//
// The training set and the model initialisation are fixed (kCatalogueSeed
// and the library defaults), so every run trains the same model; the seed
// draws the held-out evaluation graphs.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string_view>

#include "common/thread_pool.hpp"
#include "counters.hpp"
#include "gen/dataset.hpp"
#include "gnn/features.hpp"
#include "nn/tensor.hpp"
#include "rl/reinforce.hpp"
#include "workloads.hpp"

namespace sc::bench {

namespace {

/// Epochs per second of --seconds, calibrated on a 4-core Xeon host so the
/// measured window lasts about --seconds there (README.md, "Calibration").
/// The epoch count is fixed for a given --seconds, so the trained parameters
/// and the evaluation results are deterministic.
constexpr double kEpochsPerSecond = 2.0;

struct Sizes {
  gen::Setting setting;
  std::size_t train_graphs;
  std::size_t eval_graphs;
};

/// One training set-up. Contexts borrow the graphs, so the struct is
/// heap-pinned and never moved.
struct TrainSetup {
  std::vector<graph::StreamGraph> train;
  std::vector<graph::StreamGraph> eval;
  std::vector<rl::GraphContext> train_ctx;
  std::vector<rl::GraphContext> eval_ctx;
  gnn::CoarseningPolicy policy;
  std::atomic<std::uint64_t> epoch_span{0};
  rl::CoarsePlacer placer;
  std::unique_ptr<rl::ReinforceTrainer> trainer;
  double generate_s = 0.0;
};

/// The placer handed to the trainer: the production Metis placer inside a
/// harness span whose parent is the epoch that caused the call.
rl::CoarsePlacer spanned_placer(const std::atomic<std::uint64_t>* epoch) {
  return [inner = rl::metis_placer(), epoch](const graph::Coarsening& c,
                                              const sim::FluidSimulator& s) {
    Span span("partition.place", epoch->load(std::memory_order_relaxed));
    return inner(c, s);
  };
}

std::unique_ptr<TrainSetup> make_setup(const RunConfig& cfg, const Sizes& sz) {
  auto s = std::make_unique<TrainSetup>();
  const gen::GeneratorConfig gcfg = gen::setting_config(sz.setting);
  const auto t0 = Clock::now();
  s->train = gen::generate_graphs(gcfg, sz.train_graphs, kCatalogueSeed, "train");
  s->eval = gen::generate_graphs(gcfg, sz.eval_graphs, seeded(cfg.seed), "eval");
  s->generate_s = seconds_since(t0);
  const sim::ClusterSpec spec = rl::to_cluster_spec(gcfg.workload);
  s->train_ctx = rl::make_contexts(s->train, spec);
  s->eval_ctx = rl::make_contexts(s->eval, spec);
  s->policy = gnn::CoarseningPolicy(gnn::PolicyConfig{});
  s->placer = spanned_placer(&s->epoch_span);
  rl::TrainerConfig tcfg;
  tcfg.metis_guidance = true;
  s->trainer = std::make_unique<rl::ReinforceTrainer>(s->policy, s->train_ctx, s->placer, tcfg);
  return s;
}

std::uint64_t params_hash(const gnn::CoarseningPolicy& policy) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::Tensor& p : policy.parameters()) {
    for (const double v : p.value()) {
      h ^= std::bit_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct Window {
  rl::EpochStats warmup;
  std::vector<double> epoch_ms;
  std::vector<rl::EpochStats> stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> rewards;
  std::vector<sim::Placement> placements;
  std::uint64_t params = 0;
};

/// The measured part: after one untimed warm-up epoch per set-up, `epochs`
/// timed epochs, then greedy evaluation on the held-out graphs through both
/// public entry points. With a second set-up (a traced run) that one runs
/// with spans on, and the two alternate epoch by epoch so that both see the
/// same host conditions.
std::vector<Window> measure(const std::vector<TrainSetup*>& setups, std::size_t epochs) {
  std::vector<Window> ws(setups.size());
  // The warm-up epoch fills the episode caches and brings the pool threads
  // and the CPU up to speed, so the timed epochs are steady state.
  for (std::size_t i = 0; i < setups.size(); ++i) {
    ws[i].warmup = setups[i]->trainer->train_epoch();
  }
  reset_peak_rss();
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < setups.size(); ++i) {
      TrainSetup& s = *setups[i];
      trace::record_spans(i == 1);
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      {
        Span span("rl.train_epoch");
        s.epoch_span.store(span.id(), std::memory_order_relaxed);
        ws[i].stats.push_back(s.trainer->train_epoch());
      }
      const double dt = seconds_since(t0);
      ws[i].epoch_ms.push_back(dt * 1e3);
      ws[i].wall_s += dt;
      ws[i].cpu_s += process_cpu_seconds() - cpu0;
    }
  }
  for (std::size_t i = 0; i < setups.size(); ++i) {
    TrainSetup& s = *setups[i];
    Window& w = ws[i];
    trace::record_spans(i == 1);
    s.epoch_span.store(0, std::memory_order_relaxed);
    w.params = params_hash(s.policy);
    {
      Span span("rl.evaluate");
      w.rewards = rl::ReinforceTrainer::evaluate(s.policy, s.eval_ctx, s.placer,
                                                 &ThreadPool::global());
    }
    w.placements.resize(s.eval_ctx.size());
    ThreadPool::global().parallel_for(s.eval_ctx.size(), [&](std::size_t j) {
      w.placements[j] = rl::allocate_with_policy(s.policy, s.eval_ctx[j], s.placer);
    });
    w.peak_rss_mb = peak_rss_mb();
  }
  trace::record_spans(false);
  return ws;
}

/// Per-layer probes: each calls one public function on the workload's own
/// inputs inside a span; the metric is the p50 per call.
void run_probes(TrainSetup& s, const std::vector<sim::Placement>& eval_placements,
                WorkloadResult& r) {
  constexpr int kRounds = 3;
  const sim::ClusterSpec spec = s.train_ctx.front().simulator.spec();
  for (int round = 0; round < kRounds; ++round) {
    for (const graph::StreamGraph& g : s.train) {
      Span span("probe.rl.context_build");
      const rl::GraphContext ctx(g, spec);
    }
    for (const rl::GraphContext& ctx : s.train_ctx) {
      nn::Tensor logits;
      {
        Span span("probe.gnn.forward");
        logits = s.policy.logits(ctx.features);  // grad recorded, as in the update
      }
      const gnn::EdgeMask mask = s.policy.greedy(logits.value());
      {
        Span span("probe.nn.backward");
        s.policy.log_prob(logits, mask).backward();
      }
      graph::Coarsening storage;
      Span span("probe.graph.contract");
      (void)rl::contract_mask(ctx, mask, storage);
    }
    for (std::size_t i = 0; i < s.eval_ctx.size(); ++i) {
      Span span("probe.sim.simulate");
      (void)s.eval_ctx[i].simulator.relative_throughput(eval_placements[i]);
    }
    std::vector<const gnn::GraphFeatures*> parts;
    for (const rl::GraphContext& ctx : s.train_ctx) parts.push_back(&ctx.features);
    nn::NoGradGuard no_grad;
    Span span("probe.gnn.forward_batch");
    const gnn::BatchedGraphFeatures b = gnn::batch_features(parts);
    (void)s.policy.logits(b.merged);
  }
  for (const nn::Tensor& p : s.policy.parameters()) const_cast<nn::Tensor&>(p).zero_grad();
  add_probe_metrics(r);
}

}  // namespace

WorkloadResult run_train_large(const RunConfig& cfg) {
  WorkloadResult r;
  const Sizes sz =
      cfg.smoke ? Sizes{gen::Setting::Small, 4, 8} : Sizes{gen::Setting::Large, 32, 256};
  const std::size_t epochs =
      cfg.smoke ? 2 : std::max<std::size_t>(1, std::lround(cfg.seconds * kEpochsPerSecond));

  std::vector<double> setup_s;
  std::unique_ptr<TrainSetup> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = make_setup(cfg, sz);
    setup_s.push_back(seconds_since(t0));
  }
  const double generate_s = setup->generate_s;

  std::vector<TrainSetup*> run_setups{setup.get()};
  std::unique_ptr<TrainSetup> traced_setup;
  if (cfg.trace) {
    traced_setup = make_setup(cfg, sz);
    run_setups.push_back(traced_setup.get());
  }
  const std::vector<Window> ws = measure(run_setups, epochs);
  const Window& w = ws[0];
  const std::size_t samples = setup->trainer->config().on_policy_samples;
  const double episodes = static_cast<double>(epochs * sz.train_graphs * samples);

  double rel_sum = 0.0, cut_sum = 0.0;
  for (std::size_t i = 0; i < setup->eval_ctx.size(); ++i) {
    const rl::GraphContext& ctx = setup->eval_ctx[i];
    const sim::Placement& p = w.placements[i];
    const double rel = ctx.simulator.relative_throughput(p);
    r.check(p.size() == ctx.graph->num_nodes(), "placement size mismatch");
    r.check(std::all_of(p.begin(), p.end(),
                        [&](int d) {
                          return d >= 0 && static_cast<std::size_t>(d) <
                                               ctx.simulator.spec().num_devices;
                        }),
            "device id out of range");
    r.check(rel > 0.0 && rel <= 1.0, "relative throughput outside (0, 1]");
    r.check(rel == w.rewards[i], "evaluate() and allocate_with_policy() disagree");
    rel_sum += rel;
    cut_sum += cut_fraction(*ctx.graph, ctx.profile, p);
  }
  const EpochTotals totals = sum_epoch_stats(w.stats);
  r.check(totals.all_finite && sum_epoch_stats({w.warmup}).all_finite,
          "non-finite EpochStats field");
  const double n_eval = static_cast<double>(setup->eval_ctx.size());
  const double mean_relative = rel_sum / n_eval;
  r.check(mean_relative > 0.0 && mean_relative <= 1.0, "mean_relative outside (0, 1]");
  std::uint64_t place_hash = 1469598103934665603ULL;
  for (const sim::Placement& p : w.placements) place_hash = fnv_labels(p, place_hash);
  r.hashes["params"] = hex64(w.params);
  r.hashes["placements"] = hex64(place_hash);
  r.attempted = static_cast<std::uint64_t>(episodes) + setup->eval_ctx.size();

  const double throughput = episodes / w.wall_s;
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("throughput", throughput, "1/s");
  r.e2e("p50_ms", percentile(w.epoch_ms, 0.5), "ms");
  r.e2e("p99_ms", percentile(w.epoch_ms, 0.99), "ms");
  r.e2e("peak_rss_mb", w.peak_rss_mb, "MiB");
  r.e2e("mean_relative", mean_relative, "ratio");
  r.e2e("cut_fraction", cut_sum / n_eval, "ratio");

  if (!cfg.trace) return r;

  // The traced trainer ran the same epochs, so it has the same parameters.
  const Window& tw = ws[1];
  r.check(tw.params == w.params, "traced training diverged from the untraced run");
  trace::record_spans(true);
  run_probes(*traced_setup, tw.placements, r);
  trace::record_spans(false);

  const EpochTotals tt = sum_epoch_stats(tw.stats);
  const double traced_throughput = episodes / tw.wall_s;
  r.layer("trace_overhead", trace_overhead(throughput, traced_throughput, true), "ratio");
  r.layer("gen.generate_s", generate_s, "s");
  r.layer("rl.epoch_ms", percentile(trace::durations_ms("rl.train_epoch"), 0.5), "ms");
  r.layer("rl.epoch_self_ms", percentile(trace::self_ms("rl.train_epoch"), 0.5), "ms");
  r.layer("rl.cpu_util", tw.cpu_s / (tw.wall_s * static_cast<double>(cfg.threads)), "ratio");
  r.layer("rl.episode_cache_hit_ratio",
          tt.cache_hits + tt.cache_misses > 0
              ? static_cast<double>(tt.cache_hits) /
                    static_cast<double>(tt.cache_hits + tt.cache_misses)
              : 0.0,
          "ratio");
  r.layer("rl.dedup_hits", static_cast<double>(tt.dedup_hits), "count");
  // Placer calls made by the trainer (parented by an epoch span), not the
  // ones made by the evaluation after the epochs.
  std::vector<double> place;
  for (const SpanRecord& sp : trace::spans()) {
    if (std::string_view(sp.name) == "partition.place" && sp.parent != 0) {
      place.push_back(static_cast<double>(sp.dur_ns) / 1e6);
    }
  }
  r.layer("partition.place_calls", static_cast<double>(place.size()), "count");
  r.layer("partition.place_us", percentile(place, 0.5) * 1e3, "us");
  return r;
}

}  // namespace sc::bench
