// Execution-strategy choices must not change training: epoch statistics and
// checkpoints are bit-identical across the SIMD tier and the bisection pool
// size, the cross-epoch logit carry is invalidated by parameter edits, and
// the episode accounting adds up. Run on a 1-thread pool so even the cache
// hit/miss split is deterministic.
#include "rl/reinforce.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "gen/generator.hpp"
#include "nn/simd.hpp"
#include "partition/mlpart.hpp"
#include "rl/trainer_state.hpp"

namespace sc::rl {
namespace {

std::vector<graph::StreamGraph> small_graphs(std::size_t count, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 15;
  cfg.topology.max_nodes = 25;
  cfg.workload.num_devices = 3;
  return gen::generate_graphs(cfg, count, seed);
}

sim::ClusterSpec spec() {
  gen::GeneratorConfig cfg;
  cfg.workload.num_devices = 3;
  return to_cluster_spec(cfg.workload);
}

void expect_bit_identical(const std::vector<EpochStats>& a,
                          const std::vector<EpochStats>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].mean_sample_reward, b[e].mean_sample_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_best_reward, b[e].mean_best_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_greedy_reward, b[e].mean_greedy_reward) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_compression, b[e].mean_compression) << what << " epoch " << e;
    EXPECT_EQ(a[e].mean_loss, b[e].mean_loss) << what << " epoch " << e;
    EXPECT_EQ(a[e].cache_hits, b[e].cache_hits) << what << " epoch " << e;
    EXPECT_EQ(a[e].cache_misses, b[e].cache_misses) << what << " epoch " << e;
    EXPECT_EQ(a[e].dedup_hits, b[e].dedup_hits) << what << " epoch " << e;
  }
}

TEST(PerfToggles, SimdAndParallelBisectionKeepStatsAndCheckpointsIdentical) {
  // The two execution strategies the code still chooses at run time — the
  // SIMD tier of the nn kernels and whether recursive bisection fans out —
  // must not change training: stats and the full serialized trainer state
  // (parameters, Adam moments, RNG streams, buffers) are byte-identical on
  // the scalar tier and on a 1-worker bisection pool. SIMD identity holds
  // because every vector kernel preserves the scalar accumulation order
  // under fp-contract=off; bisection identity holds because each subtree
  // consumes a private split() RNG stream.
  const auto graphs = small_graphs(4, 53);
  ThreadPool bisect_pool(4), one_worker(1);
  const nn::simd::Tier active = nn::simd::active();
  auto run = [&](bool simd_on, bool par_bisect_on) {
    const nn::simd::Tier prev_tier =
        nn::simd::set_tier(simd_on ? active : nn::simd::Tier::Scalar);
    ThreadPool* prev_pool =
        partition::set_parallel_bisection_pool(par_bisect_on ? &bisect_pool : &one_worker);
    ThreadPool serial(1);
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 99;
    cfg.pool = &serial;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> stats;
    for (int e = 0; e < 3; ++e) stats.push_back(trainer.train_epoch());
    std::ostringstream checkpoint;
    write_trainer_state(checkpoint, trainer.export_state());
    nn::simd::set_tier(prev_tier);
    partition::set_parallel_bisection_pool(prev_pool);
    return std::pair{stats, checkpoint.str()};
  };

  const auto base = run(true, true);
  for (const auto& [label, stats_and_ckpt] :
       {std::pair{"scalar tier", run(false, true)},
        std::pair{"1-worker bisection pool", run(true, false)},
        std::pair{"both", run(false, false)}}) {
    expect_bit_identical(base.first, stats_and_ckpt.first, label);
    EXPECT_EQ(base.second, stats_and_ckpt.second)
        << label << ": checkpoint files differ";
  }
}

TEST(PerfToggles, LogitCarryInvalidatedByExternalParamChange) {
  // The trainer carries the greedy-pass logits into the next epoch's
  // sampling pass, guarded by a parameter fingerprint. Nudging a parameter
  // between epochs must force a recompute: stats stay bit-identical to a
  // run that restores the state into a fresh trainer every epoch, which has
  // nothing to carry.
  const auto graphs = small_graphs(3, 61);
  auto run = [&](bool fresh_trainer_per_epoch) {
    ThreadPool serial(1);
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 99;
    cfg.pool = &serial;
    auto trainer = std::make_unique<ReinforceTrainer>(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> out;
    for (int e = 0; e < 3; ++e) {
      out.push_back(trainer->train_epoch());
      policy.parameters()[0].value()[0] += 0.25;  // out-of-band edit
      if (fresh_trainer_per_epoch) {
        const TrainerState state = trainer->export_state();
        trainer = std::make_unique<ReinforceTrainer>(policy, contexts, metis_placer(), cfg);
        trainer->import_state(state);
      }
    }
    return out;
  };
  expect_bit_identical(run(false), run(true), "carry invalidation");
}

TEST(PerfToggles, DedupAccountsForEveryEpisode) {
  // On a serial pool with the cache enabled, each unique sampled mask does
  // exactly one cache lookup and the greedy pass adds one per graph, so
  //   hits + misses = graphs * samples - dedup_hits + graphs
  // holds every epoch.
  // Tiny graphs (few edges) + many samples: at the scorer's sparse init the
  // all-zero mask alone is likely enough that duplicate samples are certain.
  gen::GeneratorConfig gen_cfg;
  gen_cfg.topology.min_nodes = 5;
  gen_cfg.topology.max_nodes = 8;
  gen_cfg.workload.num_devices = 3;
  const auto graphs = gen::generate_graphs(gen_cfg, 4, 37);
  ThreadPool serial(1);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 12;
  cfg.on_policy_samples = 8;
  cfg.pool = &serial;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);

  std::uint64_t total_dedup = 0;
  for (int e = 0; e < 4; ++e) {
    const EpochStats s = trainer.train_epoch();
    EXPECT_EQ(s.cache_hits + s.cache_misses,
              graphs.size() * cfg.on_policy_samples - s.dedup_hits + graphs.size());
    total_dedup += s.dedup_hits;
  }
  // The scorer is biased towards sparse masks at init, so duplicate samples
  // (and hence dedup hits) occur within the first few epochs at this seed.
  EXPECT_GT(total_dedup, 0u);
}

}  // namespace
}  // namespace sc::rl
