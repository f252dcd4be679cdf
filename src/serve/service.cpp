#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gnn/features.hpp"
#include "nn/tensor.hpp"

namespace sc::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  if (t0.time_since_epoch().count() == 0) return 0.0;
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

}  // namespace

AllocationService::AllocationService(gnn::CoarseningPolicy policy, rl::CoarsePlacer placer,
                                     ServeConfig cfg)
    : cfg_(cfg),
      policy_(std::move(policy)),
      placer_(std::move(placer)),
      contexts_(cfg.context_cache_capacity, cfg.episode_cache_capacity),
      queue_(cfg.queue_depth) {
  SC_CHECK(cfg_.max_batch > 0, "serve max_batch must be positive");
  workers_.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AllocationService::~AllocationService() { stop(); }

// sc-lint: serve-hot-path
bool AllocationService::submit(AllocRequest req, ResponseFn respond) {
  if (req.submit_time.time_since_epoch().count() == 0) {
    req.submit_time = std::chrono::steady_clock::now();
  }
  Pending p{std::move(req), std::move(respond)};
  if (!queue_.try_push(std::move(p))) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AllocationService::worker_loop() {
  // Request parallelism comes from the service's workers, one request each;
  // within a request the work is too small to repay a fan-out, and workers
  // sharing one pool would wait on each other's chunks. Every fan-out site
  // (GEMM panels, parallel bisection) therefore runs inline on this thread.
  // Placements are unchanged: both are split-invariant (DESIGN.md §5.5).
  ThreadPool::InlineScope inline_scope;
  // Retained across batches: pop_batch appends into this buffer without
  // reallocating once it has grown to max_batch.
  std::vector<Pending> batch;
  batch.reserve(cfg_.max_batch);
  const auto window = std::chrono::microseconds(cfg_.batch_window_us);
  for (;;) {
    batch.clear();
    if (queue_.pop_batch(batch, cfg_.max_batch, window) == 0) return;
    process_batch(batch);
  }
}

std::size_t AllocationService::pump() {
  SC_CHECK(cfg_.workers == 0, "pump() is for worker-less (workers=0) services");
  std::vector<Pending> batch;
  batch.reserve(cfg_.max_batch);
  std::size_t processed = 0;
  while (queue_.size() > 0) {
    batch.clear();
    const std::size_t n = queue_.pop_batch(batch, cfg_.max_batch, std::chrono::microseconds(0));
    if (n == 0) break;
    process_batch(batch);
    processed += n;
  }
  return processed;
}

void AllocationService::finish_one(Pending& p, AllocResponse&& res) {
  res.id = p.req.id;
  res.latency_seconds = seconds_since(p.req.submit_time);
  if (res.status == ResponseStatus::Error) errors_.fetch_add(1, std::memory_order_relaxed);
  if (p.respond) p.respond(std::move(res));
  completed_.fetch_add(1, std::memory_order_release);
  // Pairs with drain(): the empty critical section makes the increment
  // visible to a drainer that checked the predicate just before waiting.
  { MutexLock g(drain_mutex_); }
  drain_cv_.notify_all();
}

void AllocationService::process_batch(std::vector<Pending>& batch) {
  const std::size_t n = batch.size();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_observed_.load(std::memory_order_relaxed);
  while (n > seen &&
         !max_batch_observed_.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }

  // Resolve per-request contexts; a bad graph/spec fails its own request
  // without poisoning the rest of the batch.
  std::vector<std::shared_ptr<const ServedContext>> ctxs(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      ctxs[i] = contexts_.acquire(std::move(batch[i].req.graph), batch[i].req.spec);
    } catch (const std::exception& e) {
      AllocResponse res;
      res.status = ResponseStatus::Error;
      res.error = e.what();
      finish_one(batch[i], std::move(res));
    }
  }

  nn::NoGradGuard no_grad;

  // Forward pass: one block-diagonal encoder forward for the whole batch
  // (bit-identical per graph to running it alone). Requests that resolved to
  // the same context share a single slot in the block-diagonal pack: the
  // pack never carries the same features twice, so concurrent traffic for a
  // hot job pays one encoder forward per batch instead of one per request.
  std::vector<std::size_t> slot_of(n, n);        ///< request -> forward slot
  std::vector<std::vector<double>> slot_logits;  ///< per distinct context
  {
    std::vector<const rl::GraphContext*> slot_ctx;
    std::vector<const gnn::GraphFeatures*> parts;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ctxs[i]) continue;
      const rl::GraphContext* ctx = &ctxs[i]->ctx;
      std::size_t slot = slot_ctx.size();
      for (std::size_t s = 0; s < slot_ctx.size(); ++s) {
        if (slot_ctx[s] == ctx) {
          slot = s;
          dedup_shared_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (slot == slot_ctx.size()) {
        slot_ctx.push_back(ctx);
        parts.push_back(&ctx->features);
      }
      slot_of[i] = slot;
    }
    if (!parts.empty()) {
      const gnn::BatchedGraphFeatures b = gnn::batch_features(parts);
      const nn::Tensor logit_tensor = policy_.logits(b.merged);
      slot_logits.resize(parts.size());
      for (std::size_t gi = 0; gi < parts.size(); ++gi) {
        slot_logits[gi] = gnn::logit_slice(logit_tensor.value(), b, gi);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!ctxs[i]) continue;  // already answered with an error
    Pending& p = batch[i];
    const rl::GraphContext& ctx = ctxs[i]->ctx;
    const std::vector<double>& logits = slot_logits[slot_of[i]];
    try {
      // Candidate masks: greedy plus best_of stochastic samples, scored
      // through the context's episode cache — the same argmax (strict
      // greater, first wins) as rl::allocate_with_policy_best_of.
      gnn::EdgeMask best_mask = policy_.greedy(logits);
      if (p.req.best_of > 0) {
        double best_reward = rl::evaluate_mask_cached(ctx, best_mask, placer_).reward;
        Rng rng(p.req.seed);
        for (std::size_t s = 0; s < p.req.best_of; ++s) {
          gnn::EdgeMask cand = policy_.sample(logits, rng);
          const double r = rl::evaluate_mask_cached(ctx, cand, placer_).reward;
          if (r > best_reward) {
            best_reward = r;
            best_mask = std::move(cand);
          }
        }
      }

      // The post-forward tail (contract, place, simulate) is deterministic
      // in (context, mask); memoize it per context so recurring winners cost
      // a hash lookup. Leases survive eviction, so `tail` stays valid.
      const std::uint64_t tail_key = rl::hash_mask(best_mask);
      std::shared_ptr<const TailResult> tail = ctxs[i]->tails.lookup(tail_key, best_mask);
      if (!tail) {
        const graph::Coarsening& c = rl::contract_mask(ctx, best_mask);
        auto fresh = std::make_shared<TailResult>();
        fresh->placement = placer_(c, ctx.simulator);
        fresh->throughput = ctx.simulator.throughput(fresh->placement);
        fresh->relative = ctx.simulator.relative_throughput(fresh->placement);
        fresh->mask = std::move(best_mask);
        tail = std::move(fresh);
        ctxs[i]->tails.insert(tail_key, tail);
      }
      AllocResponse res;
      res.placement = tail->placement;
      if (p.req.report) {
        // Full diagnostics are off the memoized path (rare, debug-oriented).
        const sim::PlacementReport rep = ctx.simulator.report(res.placement);
        res.throughput = rep.throughput;
        res.relative = rep.relative_throughput;
      } else {
        res.throughput = tail->throughput;
        res.relative = tail->relative;
      }
      res.batch_size = n;
      finish_one(p, std::move(res));
    } catch (const std::exception& e) {
      AllocResponse res;
      res.status = ResponseStatus::Error;
      res.error = e.what();
      finish_one(p, std::move(res));
    }
  }
}

void AllocationService::drain() {
  MutexLock lock(drain_mutex_);
  drain_cv_.wait(drain_mutex_, [&] {
    return completed_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
}

void AllocationService::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Worker-less services drain on the caller's thread.
  if (cfg_.workers == 0) {
    std::vector<Pending> batch;
    batch.reserve(cfg_.max_batch);
    while (queue_.pop_batch(batch, cfg_.max_batch, std::chrono::microseconds(0)) > 0) {
      process_batch(batch);
      batch.clear();
    }
  }
}

ServeStats AllocationService::stats() const {
  ServeStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.max_batch_observed = max_batch_observed_.load(std::memory_order_relaxed);
  s.dedup_shared = dedup_shared_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.context_cache = contexts_.stats();
  return s;
}

}  // namespace sc::serve
