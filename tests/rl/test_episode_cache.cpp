// Episode cache: memoized evaluate_mask results must be bit-for-bit identical
// to fresh evaluations, hit/miss counters must track lookups, and concurrent
// lookup/insert traffic must be race-free.
#include "rl/episode_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "rl/reinforce.hpp"
#include "rl/rollout.hpp"

namespace sc::rl {
namespace {

std::vector<graph::StreamGraph> small_graphs(std::size_t count, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.topology.min_nodes = 12;
  cfg.topology.max_nodes = 20;
  cfg.workload.num_devices = 3;
  return gen::generate_graphs(cfg, count, seed);
}

sim::ClusterSpec spec() {
  gen::GeneratorConfig cfg;
  cfg.workload.num_devices = 3;
  return to_cluster_spec(cfg.workload);
}

gnn::EdgeMask random_mask(std::size_t edges, Rng& rng) {
  gnn::EdgeMask mask(edges);
  for (int& b : mask) b = rng.uniform() < 0.4 ? 1 : 0;
  return mask;
}

TEST(EpisodeCache, HashDistinguishesMasks) {
  const gnn::EdgeMask a{1, 0, 1};
  const gnn::EdgeMask b{1, 0, 0};
  const gnn::EdgeMask c{1, 0, 1, 0};  // same prefix, different length
  EXPECT_EQ(hash_mask(a), hash_mask(a));
  EXPECT_NE(hash_mask(a), hash_mask(b));
  EXPECT_NE(hash_mask(a), hash_mask(c));
  // Masks longer than one 64-bit word still hash by content.
  gnn::EdgeMask long_a(130, 0), long_b(130, 0);
  long_a[97] = 1;
  EXPECT_NE(hash_mask(long_a), hash_mask(long_b));
}

TEST(EpisodeCache, CachedMatchesUncachedBitForBit) {
  const auto graphs = small_graphs(2, 31);
  const auto contexts = make_contexts(graphs, spec());
  const auto placer = metis_placer();
  Rng rng(99);
  for (const auto& ctx : contexts) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto mask = random_mask(ctx.graph->num_edges(), rng);
      const Episode fresh = evaluate_mask(ctx, mask, placer);
      const Episode first = evaluate_mask_cached(ctx, mask, placer);
      const Episode hit = evaluate_mask_cached(ctx, mask, placer);
      EXPECT_EQ(fresh.reward, first.reward);
      EXPECT_EQ(fresh.compression, first.compression);
      EXPECT_EQ(fresh.reward, hit.reward);
      EXPECT_EQ(fresh.compression, hit.compression);
      EXPECT_EQ(fresh.mask, hit.mask);
    }
  }
}

TEST(EpisodeCache, CountersTrackHitsAndMisses) {
  const auto graphs = small_graphs(1, 37);
  const auto contexts = make_contexts(graphs, spec());
  const auto& ctx = contexts[0];
  const auto placer = metis_placer();
  ctx.cache->clear();

  Rng rng(5);
  const auto mask_a = random_mask(ctx.graph->num_edges(), rng);
  auto mask_b = mask_a;
  mask_b[0] ^= 1;

  evaluate_mask_cached(ctx, mask_a, placer);  // miss + insert
  EXPECT_EQ(ctx.cache->hits(), 0u);
  EXPECT_EQ(ctx.cache->misses(), 1u);
  EXPECT_EQ(ctx.cache->size(), 1u);

  evaluate_mask_cached(ctx, mask_a, placer);  // hit
  EXPECT_EQ(ctx.cache->hits(), 1u);
  EXPECT_EQ(ctx.cache->misses(), 1u);

  evaluate_mask_cached(ctx, mask_b, placer);  // different mask: miss
  EXPECT_EQ(ctx.cache->hits(), 1u);
  EXPECT_EQ(ctx.cache->misses(), 2u);
  EXPECT_EQ(ctx.cache->size(), 2u);

  ctx.cache->clear();
  EXPECT_EQ(ctx.cache->hits(), 0u);
  EXPECT_EQ(ctx.cache->misses(), 0u);
  EXPECT_EQ(ctx.cache->size(), 0u);
}

TEST(EpisodeCache, CollisionGuardComparesStoredMask) {
  EpisodeCache cache;
  Episode ep;
  ep.mask = {1, 0, 1};
  ep.reward = 0.5;
  const std::uint64_t key = hash_mask(ep.mask);
  cache.insert(key, ep);
  // Probing the same key with a different mask must miss (simulated
  // collision), not return the stored episode — and the collision is counted.
  const gnn::EdgeMask other{0, 1, 0};
  EXPECT_FALSE(cache.lookup(key, other).has_value());
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_TRUE(cache.lookup(key, ep.mask).has_value());
  EXPECT_EQ(cache.collisions(), 1u);

  // A colliding insert clobbers the resident entry but is also counted, so
  // long runs can observe the (vanishingly unlikely) event.
  Episode clobber;
  clobber.mask = other;
  clobber.reward = 0.9;
  cache.insert(key, clobber);
  EXPECT_EQ(cache.collisions(), 2u);
  EXPECT_TRUE(cache.lookup(key, other).has_value());
}

TEST(EpisodeCache, CapacityBoundEvictsOldestFirst) {
  EpisodeCache cache(3);
  EXPECT_EQ(cache.capacity(), 3u);
  auto episode_for = [](int i) {
    Episode ep;
    ep.mask = gnn::EdgeMask{i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1};
    ep.reward = static_cast<double>(i);
    return ep;
  };
  for (int i = 0; i < 3; ++i) {
    const Episode ep = episode_for(i);
    cache.insert(hash_mask(ep.mask), ep);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Fourth insert evicts the oldest entry (i=0); the rest survive.
  const Episode ep3 = episode_for(3);
  cache.insert(hash_mask(ep3.mask), ep3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(hash_mask(episode_for(0).mask), episode_for(0).mask).has_value());
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(cache.lookup(hash_mask(episode_for(i).mask), episode_for(i).mask).has_value())
        << "entry " << i;
  }

  // Re-inserting a resident key overwrites in place: no growth, no eviction.
  cache.insert(hash_mask(ep3.mask), ep3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);

  // The bound holds under sustained unique inserts.
  for (int i = 4; i < 40; ++i) {
    const Episode ep = episode_for(i);
    cache.insert(hash_mask(ep.mask), ep);
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.evictions(), 37u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.collisions(), 0u);
}

TEST(EpisodeCache, TrainerSurfacesCollisionCounter) {
  const auto graphs = small_graphs(2, 53);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 31;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
  // Real collisions are vanishingly rare; inject one through the context's
  // cache and confirm the per-epoch delta reaches EpochStats.
  const auto s0 = trainer.train_epoch();
  EXPECT_EQ(s0.cache_collisions, 0u);
  Episode planted;
  planted.mask = gnn::EdgeMask(contexts[0].graph->num_edges(), 0);
  contexts[0].cache->insert(hash_mask(planted.mask), planted);
  gnn::EdgeMask probe = planted.mask;
  probe[0] = 1;
  contexts[0].cache->lookup(hash_mask(planted.mask), probe);  // counted collision
  const auto s1 = trainer.train_epoch();
  EXPECT_GE(contexts[0].cache->collisions(), 1u);
  // The epoch delta excludes collisions from before the epoch started.
  EXPECT_EQ(s1.cache_collisions, 0u);
}

TEST(EpisodeCache, ConcurrentLookupsAndInsertsAreRaceFree) {
  const auto graphs = small_graphs(1, 41);
  const auto contexts = make_contexts(graphs, spec());
  const auto& ctx = contexts[0];
  const auto placer = metis_placer();
  ctx.cache->clear();

  // A small pool of distinct masks probed from many tasks: every task either
  // hits or re-evaluates and inserts an identical episode. TSan-clean and the
  // final contents must match fresh evaluations.
  Rng rng(17);
  std::vector<gnn::EdgeMask> masks;
  for (int i = 0; i < 6; ++i) masks.push_back(random_mask(ctx.graph->num_edges(), rng));
  std::vector<Episode> expected;
  for (const auto& m : masks) expected.push_back(evaluate_mask(ctx, m, placer));

  ThreadPool pool(4);
  const std::size_t tasks = 64;
  std::vector<double> rewards(tasks);
  pool.parallel_for(tasks, [&](std::size_t i) {
    rewards[i] = evaluate_mask_cached(ctx, masks[i % masks.size()], placer).reward;
  });
  for (std::size_t i = 0; i < tasks; ++i) {
    EXPECT_EQ(rewards[i], expected[i % masks.size()].reward) << "task " << i;
  }
  EXPECT_EQ(ctx.cache->size(), masks.size());
  EXPECT_EQ(ctx.cache->hits() + ctx.cache->misses(), tasks);
  EXPECT_GE(ctx.cache->misses(), masks.size());
}

TEST(EpisodeCache, TrainerSurfacesCounters) {
  const auto graphs = small_graphs(3, 43);
  auto contexts = make_contexts(graphs, spec());
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 9;
  ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);

  // One epoch evaluates G*S sampled masks plus G greedy masks; every
  // evaluation is either a hit or a miss.
  const auto stats = trainer.train_epoch();
  const std::uint64_t total =
      graphs.size() * cfg.on_policy_samples + graphs.size();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(EpisodeCache, CacheOnAndOffTrainIdentically) {
  // The cache must be semantically invisible: identical seeds with the
  // default caches and with one-entry caches (which re-evaluate nearly every
  // mask) produce identical epoch statistics.
  const auto graphs = small_graphs(3, 47);
  TrainerConfig cfg;
  cfg.seed = 21;

  auto run = [&](bool cache_on) {
    auto contexts = make_contexts(graphs, spec());
    if (!cache_on) {
      for (GraphContext& ctx : contexts) ctx.cache = std::make_shared<EpisodeCache>(1);
    }
    gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    ReinforceTrainer trainer(policy, contexts, metis_placer(), cfg);
    std::vector<EpochStats> out;
    for (int e = 0; e < 3; ++e) out.push_back(trainer.train_epoch());
    return out;
  };

  const auto with_cache = run(true);
  const auto without = run(false);
  for (std::size_t e = 0; e < with_cache.size(); ++e) {
    EXPECT_EQ(with_cache[e].mean_sample_reward, without[e].mean_sample_reward);
    EXPECT_EQ(with_cache[e].mean_best_reward, without[e].mean_best_reward);
    EXPECT_EQ(with_cache[e].mean_greedy_reward, without[e].mean_greedy_reward);
    EXPECT_EQ(with_cache[e].mean_compression, without[e].mean_compression);
    EXPECT_EQ(with_cache[e].mean_loss, without[e].mean_loss);
  }
}

}  // namespace
}  // namespace sc::rl
