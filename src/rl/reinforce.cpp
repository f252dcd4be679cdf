#include "rl/reinforce.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "analysis/validate.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "graph/contraction.hpp"
#include "nn/ops.hpp"
#include "rl/episode_cache.hpp"

namespace sc::rl {

namespace {

/// SplitMix64-style seed derivation for the per-sample RNG streams: the
/// resulting mask sequence depends only on (epoch seed, pair index), never on
/// which worker thread evaluates the pair.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

ReinforceTrainer::ReinforceTrainer(gnn::CoarseningPolicy& policy,
                                   std::vector<GraphContext>& contexts,
                                   CoarsePlacer placer, const TrainerConfig& cfg)
    : policy_(policy),
      contexts_(contexts),
      placer_(std::move(placer)),
      cfg_(cfg),
      buffer_(contexts.size(), cfg.buffer_capacity),
      optimizer_(policy.parameters(), cfg.adam),
      rng_(cfg.seed),
      logits_carry_(contexts.size()) {
  SC_CHECK(!contexts_.empty(), "trainer needs at least one graph context");
  SC_CHECK(cfg_.on_policy_samples > 0, "need at least one on-policy sample");
  if (cfg_.metis_guidance) seed_metis_guidance();
}

ThreadPool& ReinforceTrainer::pool() const {
  return cfg_.pool != nullptr ? *cfg_.pool : ThreadPool::global();
}

std::uint64_t ReinforceTrainer::params_fingerprint() const {
  // SplitMix64-mixed, order-dependent combine over every parameter bit
  // pattern. ~10k doubles for the default policy, so the check costs
  // microseconds against the encoder forward it can save.
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (const nn::Tensor& p : policy_.parameters()) {
    for (const double v : p.value()) {
      std::uint64_t z = h ^ std::bit_cast<std::uint64_t>(v);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      h = z ^ (z >> 31);
    }
  }
  return h;
}

void ReinforceTrainer::encode_no_grad(std::size_t gi) {
  // The guard is thread-local, so it goes inside the pool task.
  nn::NoGradGuard no_grad;
  prof::ScopedTimer timer(prof::Phase::Encode);
  logits_carry_[gi] = policy_.logits(contexts_[gi].features).value();
}

void ReinforceTrainer::seed_metis_guidance() {
  // For every training graph: run the multilevel partitioner as Metis would,
  // treat its device groups as a coarsening, and recover an edge-collapse
  // mask via maximum-spanning-tree selection (Sec. IV-C). These episodes act
  // as informative cold-start samples and are naturally evicted once the
  // policy discovers better masks.
  std::vector<Episode> seeds(contexts_.size());
  pool().parallel_for(contexts_.size(), [&](std::size_t i) {
    const GraphContext& ctx = contexts_[i];
    const sim::Placement metis_p = partition::metis_allocate(
        *ctx.graph, ctx.simulator.spec(), cfg_.partition_opts);
    std::vector<graph::NodeId> groups(metis_p.begin(), metis_p.end());
    const auto mask_bits = graph::mask_from_groups(*ctx.graph, ctx.profile, groups);
    gnn::EdgeMask mask(mask_bits.size());
    for (std::size_t e = 0; e < mask.size(); ++e) mask[e] = mask_bits[e] ? 1 : 0;
    seeds[i] = evaluate_mask_cached(ctx, mask, placer_);
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) buffer_.insert(i, std::move(seeds[i]));
}

EpochStats ReinforceTrainer::train_epoch() {
  // Checked builds bracket the epoch with parameter finiteness checks: a NaN
  // that slips into the weights (diverged Adam step, corrupted checkpoint)
  // would otherwise only surface as silently flat rewards epochs later.
  SC_VALIDATE_AT(Deep, nn::check_finite_all(policy_.parameters(), "policy (epoch start)"));
  EpochStats stats;
  const std::size_t num_graphs = contexts_.size();
  const std::size_t samples = cfg_.on_policy_samples;

  std::uint64_t hits_before = 0, misses_before = 0, collisions_before = 0;
  for (const GraphContext& ctx : contexts_) {
    hits_before += ctx.cache->hits();
    misses_before += ctx.cache->misses();
    collisions_before += ctx.cache->collisions();
  }

  std::vector<std::size_t> order(num_graphs);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.shuffle(order);
  // One draw from the trainer RNG seeds every per-sample stream this epoch;
  // drawn on the main thread so results never depend on worker scheduling.
  const std::uint64_t epoch_seed = rng_();

  // 1. Sample on-policy masks for every graph from the epoch-start policy,
  // then evaluate all graph × sample pairs in a single parallel_for: the
  // per-graph sample count alone is often too small to fill the pool.
  //
  // Parameters are untouched between the previous epoch's greedy pass and
  // this sampling pass, so the carried greedy-pass logits are exactly what a
  // forward would recompute; the fingerprint check catches any out-of-band
  // parameter edit and forces fresh forwards, one graph per pool task.
  const bool refresh = !logits_carry_valid_ || carry_fingerprint_ != params_fingerprint();
  std::vector<std::vector<gnn::EdgeMask>> masks(num_graphs);
  pool().parallel_for(num_graphs, [&](std::size_t gi) {
    if (refresh) encode_no_grad(gi);
    prof::ScopedTimer timer(prof::Phase::Sample);
    masks[gi].reserve(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      Rng sample_rng(derive_seed(epoch_seed, gi * samples + s));
      masks[gi].push_back(policy_.sample(logits_carry_[gi], sample_rng));
    }
  });

  // Dedup identical sampled masks per graph before fanning out: duplicates
  // (common once the policy sharpens) reuse the canonical episode instead of
  // becoming redundant parallel_for jobs. Computed sequentially on the main
  // thread, so it is deterministic and thread-count independent.
  std::vector<Episode> episodes(num_graphs * samples);
  std::vector<std::size_t> canonical(episodes.size());
  std::vector<std::size_t> unique_jobs;
  unique_jobs.reserve(episodes.size());
  for (std::size_t gi = 0; gi < num_graphs; ++gi) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> seen;  // hash -> sample idx
    for (std::size_t s = 0; s < samples; ++s) {
      const std::size_t idx = gi * samples + s;
      std::vector<std::size_t>& bucket = seen[hash_mask(masks[gi][s])];
      std::size_t canon = idx;
      for (const std::size_t prev : bucket) {
        if (masks[gi][prev] == masks[gi][s]) {
          canon = gi * samples + prev;
          break;
        }
      }
      canonical[idx] = canon;
      if (canon == idx) {
        bucket.push_back(s);
        unique_jobs.push_back(idx);
      } else {
        ++stats.dedup_hits;
      }
    }
  }
  pool().parallel_for(unique_jobs.size(), [&](std::size_t k) {
    const std::size_t idx = unique_jobs[k];
    episodes[idx] = evaluate_mask_cached(contexts_[idx / samples],
                                         masks[idx / samples][idx % samples], placer_);
  });
  for (std::size_t idx = 0; idx < episodes.size(); ++idx) {
    if (canonical[idx] != idx) episodes[idx] = episodes[canonical[idx]];
  }

  // 2. Sequential per-graph policy updates in shuffled order (one optimizer
  // step per graph, as before; masks come from the epoch-start policy).
  for (const std::size_t gi : order) {
    const GraphContext& ctx = contexts_[gi];
    const auto first = episodes.begin() + static_cast<std::ptrdiff_t>(gi * samples);
    std::vector<Episode> batch(first, first + static_cast<std::ptrdiff_t>(samples));

    double on_policy_sum = 0.0;
    for (const Episode& ep : batch) on_policy_sum += ep.reward;
    stats.mean_sample_reward += on_policy_sum / static_cast<double>(batch.size());

    // Mix in the historically best samples.
    for (Episode& ep : buffer_.best(gi, cfg_.buffer_samples)) {
      batch.push_back(std::move(ep));
    }

    // Baseline and policy-gradient loss.
    double baseline = 0.0;
    for (const Episode& ep : batch) baseline += ep.reward;
    baseline /= static_cast<double>(batch.size());

    nn::Tensor logit_tensor = [&] {
      prof::ScopedTimer timer(prof::Phase::Encode);
      return policy_.logits(ctx.features);  // grads recorded
    }();
    // Policy-gradient loss through the fused masked_logprob_sum kernel:
    //   (1/|batch|) Σ_j (-advantage_j) Σ_i log p(mask_j[i] | logit_i)
    // bit-identical to the former add(loss, scale(log_prob(...))) chain.
    std::vector<std::vector<int>> update_masks;
    std::vector<double> coeffs;
    update_masks.reserve(batch.size());
    coeffs.reserve(batch.size());
    for (const Episode& ep : batch) {
      const double advantage = ep.reward - baseline;
      if (std::abs(advantage) < 1e-12) continue;
      update_masks.push_back(ep.mask);
      coeffs.push_back(-advantage);
    }
    nn::Tensor loss =
        nn::masked_logprob_sum(logit_tensor, std::move(update_masks), std::move(coeffs),
                               1.0 / static_cast<double>(batch.size()));
    if (cfg_.entropy_bonus > 0.0) {
      loss = nn::sub(loss, nn::scale(nn::mean(nn::bernoulli_entropy(logit_tensor)),
                                     cfg_.entropy_bonus));
    }
    stats.mean_loss += loss.item();
    {
      prof::ScopedTimer timer(prof::Phase::Backward);
      loss.backward();
      optimizer_.step();
    }

    // Persist this step's on-policy samples for future baselines.
    for (std::size_t s = 0; s < samples; ++s) {
      buffer_.insert(gi, episodes[gi * samples + s]);
    }
    stats.mean_best_reward += buffer_.best_reward(gi);
  }

  const double n = static_cast<double>(num_graphs);
  stats.mean_sample_reward /= n;
  stats.mean_best_reward /= n;
  stats.mean_loss /= n;

  // 3. Greedy evaluation on the training graphs (cheap health signal). Each
  // pool task runs one graph's post-update forward, which yields both the
  // greedy reward and the compression ratio of that context, and carries its
  // logits into the next epoch's sampling pass (parameters will not change in
  // between). Once the policy stabilises the greedy mask repeats across
  // epochs and the evaluation becomes a pure cache hit.
  std::vector<double> greedy_reward(num_graphs), greedy_compression(num_graphs);
  logits_carry_valid_ = false;  // until every slot holds post-update logits
  pool().parallel_for(num_graphs, [&](std::size_t i) {
    encode_no_grad(i);
    const Episode ep =
        evaluate_mask_cached(contexts_[i], policy_.greedy(logits_carry_[i]), placer_);
    greedy_reward[i] = ep.reward;
    greedy_compression[i] = ep.compression;
  });
  logits_carry_valid_ = true;
  carry_fingerprint_ = params_fingerprint();
  for (std::size_t i = 0; i < num_graphs; ++i) {
    stats.mean_greedy_reward += greedy_reward[i];
    stats.mean_compression += greedy_compression[i];
  }
  stats.mean_greedy_reward /= n;
  stats.mean_compression /= n;

  for (const GraphContext& ctx : contexts_) {
    stats.cache_hits += ctx.cache->hits();
    stats.cache_misses += ctx.cache->misses();
    stats.cache_collisions += ctx.cache->collisions();
  }
  stats.cache_hits -= hits_before;
  stats.cache_misses -= misses_before;
  stats.cache_collisions -= collisions_before;
  ++epochs_completed_;
  SC_VALIDATE_AT(Deep, nn::check_finite_all(policy_.parameters(), "policy (epoch end)"));
  return stats;
}

TrainerState ReinforceTrainer::export_state() const {
  TrainerState state;
  state.epochs_completed = epochs_completed_;
  state.rng_state = rng_.state();
  for (const nn::Tensor& p : policy_.parameters()) {
    state.param_shapes.push_back(p.shape());
    state.param_values.push_back(p.value());
  }
  state.adam = optimizer_.export_state();
  state.buffer_capacity = buffer_.capacity();
  state.buffer_entries = buffer_.entries();
  return state;
}

void ReinforceTrainer::import_state(const TrainerState& state) {
  // Validate everything against this trainer before mutating anything, so a
  // mismatched checkpoint never applies partial state.
  const std::vector<nn::Tensor> params = policy_.parameters();
  SC_CHECK(state.param_values.size() == params.size(),
           "trainer checkpoint has " << state.param_values.size() << " tensors, model expects "
                                     << params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SC_CHECK(state.param_shapes[i] == params[i].shape(),
             "tensor " << i << " shape mismatch between trainer checkpoint and model");
  }
  SC_CHECK(state.buffer_entries.size() == contexts_.size(),
           "trainer checkpoint covers " << state.buffer_entries.size()
                                        << " graphs, trainer has " << contexts_.size());
  SC_CHECK(state.buffer_capacity == buffer_.capacity(),
           "trainer checkpoint buffer capacity " << state.buffer_capacity
                                                 << " != configured capacity "
                                                 << buffer_.capacity());

  for (std::size_t i = 0; i < params.size(); ++i) {
    const_cast<nn::Tensor&>(params[i]).value() = state.param_values[i];
  }
  optimizer_.import_state(state.adam);
  rng_.set_state(state.rng_state);
  buffer_.restore(state.buffer_entries);
  epochs_completed_ = state.epochs_completed;
  // Parameters changed out-of-band for the carry; force a fresh forward.
  logits_carry_valid_ = false;
}

std::vector<double> ReinforceTrainer::evaluate(const gnn::CoarseningPolicy& policy,
                                               const std::vector<GraphContext>& contexts,
                                               const CoarsePlacer& placer,
                                               ThreadPool* pool) {
  std::vector<double> rewards(contexts.size(), 0.0);
  const auto eval_one = [&](std::size_t i) {
    const sim::Placement p = allocate_with_policy(policy, contexts[i], placer);
    rewards[i] = contexts[i].simulator.relative_throughput(p);
  };
  if (pool != nullptr) {
    // parallel_for returns only after every index has run (asserted by
    // ThreadPool.ParallelForBlocksUntilComplete), so `rewards` is complete.
    pool->parallel_for(contexts.size(), eval_one);
  } else {
    for (std::size_t i = 0; i < contexts.size(); ++i) eval_one(i);
  }
  return rewards;
}

}  // namespace sc::rl
