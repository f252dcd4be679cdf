// REINFORCE training of the coarsening policy (Sec. III "Training").
//
//   ∇J(θ) = (1/N) Σ_n ∇ log π_θ(G_y^n) [r(G_y^n) − b]
//
// with b the average reward of the N on-policy samples plus up to M
// historically best samples from the per-graph memory buffer. The buffer is
// optionally pre-seeded with Metis-guided masks (Sec. IV-C) inferred via
// maximum-spanning-tree edge recovery.
#pragma once

#include <cstdint>
#include <optional>

#include "common/thread_pool.hpp"
#include "nn/adam.hpp"
#include "rl/buffer.hpp"
#include "rl/rollout.hpp"
#include "rl/trainer_state.hpp"

namespace sc::rl {

struct TrainerConfig {
  std::size_t on_policy_samples = 3;  ///< paper: 3 on-policy samples per step
  std::size_t buffer_samples = 3;     ///< paper: up to 3 buffer samples
  std::size_t buffer_capacity = 5;
  nn::AdamConfig adam{};              ///< paper: Adam, lr 1e-3
  std::uint64_t seed = 7;
  bool metis_guidance = false;        ///< seed buffers with Metis-derived masks
  /// Entropy-bonus coefficient (0 disables): keeps collapse probabilities
  /// from saturating prematurely, stabilising long fine-tuning runs.
  double entropy_bonus = 0.0;
  partition::PartitionOptions partition_opts{};
  /// Pool for mask evaluation fan-out; nullptr = ThreadPool::global(). Epoch
  /// stats are identical for any pool size at a fixed seed.
  ThreadPool* pool = nullptr;
};

struct EpochStats {
  double mean_sample_reward = 0.0;  ///< average reward of on-policy samples
  double mean_best_reward = 0.0;    ///< average best-buffered reward per graph
  double mean_greedy_reward = 0.0;  ///< reward of the deterministic policy
  double mean_compression = 0.0;    ///< mean compression ratio of greedy masks
  double mean_loss = 0.0;
  std::uint64_t cache_hits = 0;    ///< episode-cache hits this epoch
  std::uint64_t cache_misses = 0;  ///< episode-cache misses (fresh evaluations)
  /// Episode-cache 64-bit hash collisions observed this epoch (a colliding
  /// insert clobbers the resident entry; see EpisodeCache::collisions()).
  std::uint64_t cache_collisions = 0;
  /// Sampled masks that duplicated an earlier sample of the same graph this
  /// epoch and were deduplicated before evaluation (the duplicate reuses the
  /// canonical episode instead of becoming a parallel_for job).
  std::uint64_t dedup_hits = 0;
};

class ReinforceTrainer {
public:
  /// The trainer borrows the policy and contexts; both must outlive it.
  ReinforceTrainer(gnn::CoarseningPolicy& policy, std::vector<GraphContext>& contexts,
                   CoarsePlacer placer, const TrainerConfig& cfg);

  /// One pass over every context (one policy update per graph).
  EpochStats train_epoch();

  /// Evaluates the deterministic (greedy) policy over `contexts` (which may
  /// be a different split than the training contexts).
  static std::vector<double> evaluate(const gnn::CoarseningPolicy& policy,
                                      const std::vector<GraphContext>& contexts,
                                      const CoarsePlacer& placer,
                                      ThreadPool* pool = nullptr);

  const SampleBuffer& buffer() const { return buffer_; }
  const TrainerConfig& config() const { return cfg_; }

  /// Epochs this trainer has completed (including epochs restored via
  /// import_state); drives resume bookkeeping in the framework and tools.
  std::uint64_t epochs_completed() const { return epochs_completed_; }

  /// Snapshot of everything that shapes future epochs: parameter values,
  /// Adam moments/step, the trainer RNG stream, the epoch counter and the
  /// best-sample buffer. Resuming from this snapshot replays the exact
  /// learning trajectory of an uninterrupted run (see trainer_state.hpp).
  TrainerState export_state() const;

  /// Restores a snapshot into this trainer (and the borrowed policy). The
  /// checkpoint must match the model architecture and the number of training
  /// graphs; mismatches throw without applying partial state.
  void import_state(const TrainerState& state);

private:
  void seed_metis_guidance();
  ThreadPool& pool() const;
  /// Lazily packs all contexts into one block-diagonal batch (features are
  /// per-graph constants, so this is built once and reused every epoch; the
  /// borrowed contexts must not be reshaped while the trainer lives).
  const gnn::BatchedGraphFeatures& batched_features();
  /// Order-dependent hash over every policy parameter value; guards the
  /// cross-epoch logit carry below against out-of-band parameter edits.
  std::uint64_t params_fingerprint() const;

  gnn::CoarseningPolicy& policy_;
  std::vector<GraphContext>& contexts_;
  CoarsePlacer placer_;
  TrainerConfig cfg_;
  SampleBuffer buffer_;
  nn::Adam optimizer_;
  Rng rng_;
  std::uint64_t epochs_completed_ = 0;
  gnn::BatchedGraphFeatures batched_;
  bool batched_built_ = false;
  /// Batched logits carried from the previous epoch's greedy pass. Parameters
  /// do not change between the end of epoch e and the start of epoch e+1, so
  /// the next sampling pass reuses these values instead of rerunning the
  /// encoder — halving actor-side forwards in steady state, bit-identically.
  /// Validity is re-checked against params_fingerprint() so external
  /// parameter edits force a fresh forward.
  std::vector<double> logits_carry_;
  bool logits_carry_valid_ = false;
  std::uint64_t carry_fingerprint_ = 0;
};

}  // namespace sc::rl
