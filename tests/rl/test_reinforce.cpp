#include "rl/reinforce.hpp"

#include <gtest/gtest.h>

#include <string>

#include "gen/dataset.hpp"
#include "gen/generator.hpp"

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

TEST(Reinforce, EpochImprovesBestReward) {
  const auto graphs = small_graphs(6, 11);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 5;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);

  const auto first = trainer.train_epoch();
  EpochStats last = first;
  for (int e = 0; e < 5; ++e) last = trainer.train_epoch();
  // The best-sample buffer is monotone, so best reward must not decrease.
  EXPECT_GE(last.mean_best_reward, first.mean_best_reward - 1e-12);
  EXPECT_GT(last.mean_best_reward, 0.0);
}

TEST(Reinforce, MetisGuidanceSeedsBuffer) {
  const auto graphs = small_graphs(4, 13);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.metis_guidance = true;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    EXPECT_GE(trainer.buffer().size(i), 1u) << "graph " << i << " not seeded";
    EXPECT_GT(trainer.buffer().best_reward(i), 0.0);
  }
}

TEST(Reinforce, GuidanceRewardsMatchMetisQuality) {
  // A guided buffer's seeded reward should be within reach of plain Metis
  // (same placer on an equivalent coarsening).
  const auto graphs = small_graphs(3, 17);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.metis_guidance = true;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    const double metis_r = contexts[i].simulator.relative_throughput(
        partition::metis_allocate(graphs[i], contexts[i].simulator.spec()));
    EXPECT_GT(trainer.buffer().best_reward(i), 0.25 * metis_r);
  }
}

TEST(Reinforce, EvaluateReturnsPerGraphRewards) {
  const auto graphs = small_graphs(5, 19);
  auto contexts = make_contexts(graphs, spec());
  const gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  const auto rewards = ReinforceTrainer::evaluate(policy, contexts, metis_placer());
  ASSERT_EQ(rewards.size(), 5u);
  for (const double r : rewards) {
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 1.0 + 1e-12);
  }
}

TEST(Reinforce, RequiresContexts) {
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  std::vector<GraphContext> empty;
  EXPECT_THROW(ReinforceTrainer(policy, empty, metis_placer(), TrainerConfig{}), Error);
}

TEST(Reinforce, TrainingChangesParameters) {
  const auto graphs = small_graphs(3, 23);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  std::vector<std::vector<double>> before;
  for (const auto& p : policy.parameters()) before.push_back(p.value());

  TrainerConfig cfg;
  cfg.seed = 3;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
  trainer.train_epoch();

  double drift = 0.0;
  const auto params = policy.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (std::size_t j = 0; j < params[i].size(); ++j) {
      drift += std::abs(params[i].value()[j] - before[i][j]);
    }
  }
  EXPECT_GT(drift, 0.0);
}

TEST(Reinforce, EpochStatsIdenticalAcrossThreadCounts) {
  // train_epoch derives every sampling RNG from the epoch seed and applies
  // updates sequentially, so 1-, 2- and 4-worker pools and the global pool
  // must produce identical statistics and parameters for the same seed.
  // cfg.pool runs the trainer's own fan-out: the per-graph no-grad forwards
  // of the sampling and greedy passes, sampling and mask evaluation. The nn
  // ops of forwards issued from the calling thread (the updates, and every
  // forward on a 1-worker pool) fan row panels out over ThreadPool::global()
  // (LargeGraphTrainingBitIdenticalInline covers that fan-out).
  const auto graphs = small_graphs(4, 29);
  struct Run {
    std::vector<EpochStats> stats;
    std::vector<std::vector<double>> params;
  };
  auto run = [&](ThreadPool* pool) {
    auto contexts = make_contexts(graphs, spec());
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 77;
    cfg.pool = pool;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    Run r;
    for (int e = 0; e < 3; ++e) r.stats.push_back(trainer.train_epoch());
    for (const nn::Tensor& p : policy.parameters()) r.params.push_back(p.value());
    return r;
  };

  ThreadPool serial(1), two(2), four(4);
  const Run a = run(&serial);
  for (ThreadPool* pool : {&two, &four, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(pool != nullptr ? "pool of " + std::to_string(pool->size())
                                 : std::string("global pool"));
    const Run b = run(pool);
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (std::size_t e = 0; e < a.stats.size(); ++e) {
      EXPECT_EQ(a.stats[e].mean_sample_reward, b.stats[e].mean_sample_reward);
      EXPECT_EQ(a.stats[e].mean_best_reward, b.stats[e].mean_best_reward);
      EXPECT_EQ(a.stats[e].mean_greedy_reward, b.stats[e].mean_greedy_reward);
      EXPECT_EQ(a.stats[e].mean_compression, b.stats[e].mean_compression);
      EXPECT_EQ(a.stats[e].mean_loss, b.stats[e].mean_loss);
      // Each evaluation does exactly one cache lookup, so hits + misses is
      // thread-count invariant even though the split can differ (concurrent
      // first-touches of one mask both count as misses).
      EXPECT_EQ(a.stats[e].cache_hits + a.stats[e].cache_misses,
                b.stats[e].cache_hits + b.stats[e].cache_misses);
      // Mask dedup runs sequentially on the main thread, so its count is
      // exactly thread-count invariant.
      EXPECT_EQ(a.stats[e].dedup_hits, b.stats[e].dedup_hits);
    }
    // Bit-for-bit parameters: vector equality compares every double.
    EXPECT_TRUE(a.params == b.params) << "trained parameters differ";
  }
}

TEST(Reinforce, LargeGraphTrainingBitIdenticalInline) {
  // On Large graphs the nn ops fan their row panels out over
  // ThreadPool::global(). Training inside an InlineScope, where neither the
  // trainer nor the nn ops fan out, must reach the same bits.
  ThreadPool::configure_global(4);  // no-op once the pool exists
  const gen::GeneratorConfig gcfg = gen::setting_config(gen::Setting::Large);
  const auto graphs = gen::generate_graphs(gcfg, 4, 41);
  struct Run {
    std::vector<EpochStats> stats;
    std::vector<std::vector<double>> params;
  };
  auto train = [&] {
    auto contexts = make_contexts(graphs, to_cluster_spec(gcfg.workload));
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    TrainerConfig cfg;
    cfg.seed = 9;
    cfg.metis_guidance = true;
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    Run r;
    for (int e = 0; e < 2; ++e) r.stats.push_back(trainer.train_epoch());
    for (const nn::Tensor& p : policy.parameters()) r.params.push_back(p.value());
    return r;
  };

  const Run fanned = train();
  Run serial;
  {
    ThreadPool::InlineScope scope;
    serial = train();
  }
  EXPECT_TRUE(fanned.params == serial.params) << "trained parameters differ";
  ASSERT_EQ(fanned.stats.size(), serial.stats.size());
  for (std::size_t e = 0; e < fanned.stats.size(); ++e) {
    const EpochStats& a = fanned.stats[e];
    const EpochStats& b = serial.stats[e];
    EXPECT_EQ(a.mean_sample_reward, b.mean_sample_reward) << "epoch " << e;
    EXPECT_EQ(a.mean_best_reward, b.mean_best_reward) << "epoch " << e;
    EXPECT_EQ(a.mean_greedy_reward, b.mean_greedy_reward) << "epoch " << e;
    EXPECT_EQ(a.mean_compression, b.mean_compression) << "epoch " << e;
    EXPECT_EQ(a.mean_loss, b.mean_loss) << "epoch " << e;
    EXPECT_EQ(a.cache_hits, b.cache_hits) << "epoch " << e;
    EXPECT_EQ(a.cache_misses, b.cache_misses) << "epoch " << e;
    EXPECT_EQ(a.cache_collisions, b.cache_collisions) << "epoch " << e;
    EXPECT_EQ(a.dedup_hits, b.dedup_hits) << "epoch " << e;
  }
}

}  // namespace
}  // namespace sc::rl
