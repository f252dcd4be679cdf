// AllocationService: the serving tier's core pipeline.
//
//   submit() ──▶ BoundedQueue (admission, fail-loud shed when full)
//                     │ pop_batch (time/size window)
//                     ▼
//               worker threads ──▶ cross-request batched encoder forward
//                     │            (gnn::batch_features, one logits call)
//                     ▼
//               per-request greedy mask (+ optional best-of-k through the
//               context's EpisodeCache) → contract → place → respond
//
// Perf architecture:
//  - Admission is bounded: a full queue rejects the request at submit()
//    (returns false, shed counter bumped) instead of growing a backlog.
//  - Requests queued within one batching window share a single
//    block-diagonal GNN forward; per-graph logits are bit-identical to a
//    single-graph forward, so batching (max_batch > 1) changes latency and
//    throughput but never results.
//  - Workers retain their pop buffers; contraction/partitioning reuse the
//    thread-local scratch and workspaces via rl::contract_mask.
//  - Per-(graph, spec) state is leased from a shared ContextCache whose
//    entries each hold a capacity-bounded EpisodeCache.
//  - stop() closes admission and drains: every accepted request is answered
//    before the workers exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/thread_annotations.hpp"
#include "gnn/policy.hpp"
#include "graph/stream_graph.hpp"
#include "rl/episode_cache.hpp"
#include "rl/rollout.hpp"
#include "serve/context_cache.hpp"
#include "sim/cluster.hpp"

namespace sc::serve {

struct AllocRequest {
  std::uint64_t id = 0;
  graph::StreamGraph graph;  ///< owned; moved into the pipeline
  sim::ClusterSpec spec;
  /// Extra stochastic masks scored through the episode cache on top of the
  /// greedy mask (0 = pure greedy inference).
  std::size_t best_of = 0;
  std::uint64_t seed = 1;  ///< seeds best-of sampling; deterministic per request
  bool report = false;     ///< include full placement diagnostics
  std::chrono::steady_clock::time_point submit_time{};
};

enum class ResponseStatus { Ok, Shed, Error };

struct AllocResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  std::string error;
  sim::Placement placement;
  double throughput = 0.0;        ///< sustained tuples/s of the placement
  double relative = 0.0;          ///< throughput / source rate, in (0, 1]
  double latency_seconds = 0.0;   ///< submit-to-response, measured by the service
  std::size_t batch_size = 0;     ///< forward-batch size this request rode in
};

/// Delivery callback; invoked exactly once per accepted request, from a
/// worker thread (or the pump()ing thread). Must not block for long — it
/// holds a worker.
using ResponseFn = std::function<void(AllocResponse)>;

struct ServeConfig {
  std::size_t workers = 1;          ///< 0 = no threads; caller drives via pump()
  std::size_t queue_depth = 256;    ///< admission bound (shed beyond this)
  std::size_t max_batch = 16;       ///< batching window size cap (1 = unbatched)
  std::size_t batch_window_us = 200;  ///< wait past first request for stragglers
  std::size_t context_cache_capacity = 64;
  std::size_t episode_cache_capacity = rl::EpisodeCache::kDefaultCapacity;
};

/// Counter snapshot for the stats endpoint.
struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;  ///< responses delivered (ok + error)
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< sum of batch sizes
  std::uint64_t max_batch_observed = 0;
  std::uint64_t dedup_shared = 0;  ///< requests that shared a forward slot
  std::size_t queue_depth = 0;  ///< current queue occupancy
  ContextCacheStats context_cache;
};

class AllocationService {
public:
  /// Takes ownership of the policy (loaded once, shared by all workers; the
  /// forward path is const and thread-safe under NoGradGuard).
  AllocationService(gnn::CoarseningPolicy policy, rl::CoarsePlacer placer,
                    ServeConfig cfg);
  ~AllocationService();
  AllocationService(const AllocationService&) = delete;
  AllocationService& operator=(const AllocationService&) = delete;

  /// Admits a request. Returns false — without invoking `respond` — when the
  /// queue is full or the service is stopping; the caller sheds fail-loudly.
  /// On true, `respond` fires exactly once from a worker thread.
  bool submit(AllocRequest req, ResponseFn respond);

  /// Blocks until every accepted request has been responded to. Does not
  /// close admission (new submits keep landing); see stop() for shutdown.
  void drain() SC_EXCLUDES(drain_mutex_);

  /// Graceful shutdown: closes admission, drains queued requests, joins
  /// workers. Idempotent; called by the destructor.
  void stop();

  /// Manual worker for cfg.workers == 0 (deterministic tests): processes
  /// queued requests on the calling thread until the queue is empty.
  /// Returns the number of requests processed.
  std::size_t pump();

  ServeStats stats() const;
  const ServeConfig& config() const { return cfg_; }

private:
  struct Pending {
    AllocRequest req;
    ResponseFn respond;
  };

  void worker_loop();
  void process_batch(std::vector<Pending>& batch);
  void finish_one(Pending& p, AllocResponse&& res);

  ServeConfig cfg_;
  gnn::CoarseningPolicy policy_;
  rl::CoarsePlacer placer_;
  ContextCache contexts_;
  common::BoundedQueue<Pending> queue_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> max_batch_observed_{0};
  std::atomic<std::uint64_t> dedup_shared_{0};

  /// Guards no data of its own: completed_/accepted_ are atomics. The mutex
  /// exists to make their updates visible to drain()'s predicate wait (the
  /// empty critical section in finish_one pairs with the wait here).
  Mutex drain_mutex_;
  CondVar drain_cv_;
  std::atomic<bool> stopped_{false};
};

}  // namespace sc::serve
