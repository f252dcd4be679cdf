// Golden training fingerprint: a short REINFORCE run on fixed graphs at a
// fixed seed must reproduce the same epoch statistics and the same trained
// parameters, bit for bit. The committed values pin the production encoder,
// contraction, placer and trainer together; an optimisation of any of them
// must leave them unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "rl/reinforce.hpp"

namespace sc::rl {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= x & 0xffU;
      h *= 1099511628211ULL;
      x >>= 8;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t train_fingerprint(const CoarsePlacer& placer, std::uint64_t* params_hash) {
  gen::GeneratorConfig gcfg;
  gcfg.topology.min_nodes = 15;
  gcfg.topology.max_nodes = 25;
  gcfg.workload.num_devices = 3;
  const std::vector<graph::StreamGraph> graphs = gen::generate_graphs(gcfg, 4, 31);
  std::vector<GraphContext> contexts = make_contexts(graphs, to_cluster_spec(gcfg.workload));

  ThreadPool serial(1);
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  TrainerConfig cfg;
  cfg.seed = 99;
  cfg.metis_guidance = true;
  cfg.pool = &serial;
  ReinforceTrainer trainer(policy, contexts, placer, cfg);

  Fnv stats;
  for (int e = 0; e < 3; ++e) {
    const EpochStats s = trainer.train_epoch();
    stats.add(s.mean_sample_reward);
    stats.add(s.mean_best_reward);
    stats.add(s.mean_greedy_reward);
    stats.add(s.mean_compression);
    stats.add(s.mean_loss);
    stats.add(s.cache_hits);
    stats.add(s.cache_misses);
    stats.add(s.dedup_hits);
  }
  for (const double r : ReinforceTrainer::evaluate(policy, contexts, placer, &serial)) {
    stats.add(r);
  }
  Fnv params;
  for (const nn::Tensor& p : policy.parameters()) {
    for (const double v : p.value()) params.add(v);
  }
  *params_hash = params.h;
  return stats.h;
}

TEST(GoldenFingerprint, TrainingWithMetisPlacer) {
  std::uint64_t params = 0;
  EXPECT_EQ(train_fingerprint(metis_placer(), &params), 6233632326808390130ULL);
  EXPECT_EQ(params, 7550961727595120062ULL);
}

TEST(GoldenFingerprint, TrainingWithCoarsenOnlyPlacer) {
  std::uint64_t params = 0;
  EXPECT_EQ(train_fingerprint(coarsen_only_placer(), &params), 1214040164222137274ULL);
  EXPECT_EQ(params, 10549553607011363743ULL);
}

}  // namespace
}  // namespace sc::rl
