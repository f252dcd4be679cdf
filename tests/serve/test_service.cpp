// AllocationService: deterministic pump()-driven pipeline tests — batched
// (max_batch 8) / unbatched (max_batch 1) bit-identity, in-batch dedup, tail-cache reuse, shedding, error
// isolation, threaded drain/stop, and threaded-vs-pump() bit-identity.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <vector>

#include "../testutil.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "gnn/policy.hpp"
#include "rl/rollout.hpp"

namespace sc::serve {
namespace {

sim::ClusterSpec small_spec() {
  sim::ClusterSpec s;
  s.num_devices = 2;
  s.device_mips = 1000.0;
  s.bandwidth = 1000.0;
  s.source_rate = 50.0;
  return s;
}

gnn::CoarseningPolicy test_policy() { return gnn::CoarseningPolicy{gnn::PolicyConfig{}}; }

ServeConfig pump_config(std::size_t max_batch = 8) {
  ServeConfig cfg;
  cfg.workers = 0;  // caller drives via pump(): fully deterministic
  cfg.queue_depth = 64;
  cfg.max_batch = max_batch;
  return cfg;
}

AllocRequest request_for(std::uint64_t id, graph::StreamGraph g,
                         std::size_t best_of = 0) {
  AllocRequest req;
  req.id = id;
  req.graph = std::move(g);
  req.spec = small_spec();
  req.best_of = best_of;
  req.seed = 0x5EED0000ULL + id;
  return req;
}

/// Submits `reqs`, pumps the service, and collects responses keyed by id.
void run_requests(AllocationService& svc, std::vector<AllocRequest> reqs,
                  std::map<std::uint64_t, AllocResponse>& out) {
  const std::size_t n = reqs.size();
  for (auto& req : reqs) {
    const std::uint64_t id = req.id;
    ASSERT_TRUE(svc.submit(std::move(req), [&out, id](AllocResponse res) {
      out[id] = std::move(res);
    })) << "request " << id << " was shed";
  }
  svc.pump();
  ASSERT_EQ(out.size(), n);
}

TEST(AllocationService, PumpAnswersEveryRequest) {
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), pump_config());
  std::vector<AllocRequest> reqs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    reqs.push_back(request_for(id, test::make_chain(4 + id)));
  }
  std::map<std::uint64_t, AllocResponse> out;
  run_requests(svc, std::move(reqs), out);
  for (const auto& [id, res] : out) {
    EXPECT_EQ(res.status, ResponseStatus::Ok) << res.error;
    EXPECT_FALSE(res.placement.empty());
    EXPECT_GT(res.relative, 0.0);
    EXPECT_LE(res.relative, 1.0);
    EXPECT_EQ(res.batch_size, 4u);  // all four rode one batch
  }
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.accepted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.max_batch_observed, 4u);
}

TEST(AllocationService, BatchedAndUnbatchedAreBitIdentical) {
  AllocationService batched(test_policy(), rl::coarsen_only_placer(), pump_config());
  AllocationService unbatched(test_policy(), rl::coarsen_only_placer(), pump_config(1));
  std::vector<AllocRequest> a, b;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    a.push_back(request_for(id, test::make_chain(3 + id), /*best_of=*/2));
    b.push_back(request_for(id, test::make_chain(3 + id), /*best_of=*/2));
  }
  std::map<std::uint64_t, AllocResponse> ra, rb;
  run_requests(batched, std::move(a), ra);
  run_requests(unbatched, std::move(b), rb);
  EXPECT_EQ(batched.stats().max_batch_observed, 5u);
  EXPECT_EQ(unbatched.stats().max_batch_observed, 1u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(ra[id].placement, rb[id].placement) << "request " << id;
    EXPECT_EQ(ra[id].throughput, rb[id].throughput) << "request " << id;
    EXPECT_EQ(ra[id].relative, rb[id].relative) << "request " << id;
  }
}

TEST(AllocationService, DuplicateRequestsShareOneForwardSlot) {
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), pump_config());
  std::vector<AllocRequest> reqs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    reqs.push_back(request_for(id, test::make_chain(6)));  // same job, 4 times
  }
  std::map<std::uint64_t, AllocResponse> out;
  run_requests(svc, std::move(reqs), out);
  // One distinct context: three requests shared the first one's slot.
  EXPECT_EQ(svc.stats().dedup_shared, 3u);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    EXPECT_EQ(out[id].placement, out[1].placement);
    EXPECT_EQ(out[id].throughput, out[1].throughput);
  }
}

TEST(AllocationService, TailCacheReusesRecurringWinners) {
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), pump_config());
  std::map<std::uint64_t, AllocResponse> first, second;
  {
    std::vector<AllocRequest> reqs;
    reqs.push_back(request_for(1, test::make_chain(7)));
    run_requests(svc, std::move(reqs), first);
  }
  const std::uint64_t misses_after_first = svc.stats().context_cache.tail_misses;
  EXPECT_GE(misses_after_first, 1u);
  {
    std::vector<AllocRequest> reqs;
    reqs.push_back(request_for(2, test::make_chain(7)));  // same job, later batch
    run_requests(svc, std::move(reqs), second);
  }
  const ContextCacheStats cc = svc.stats().context_cache;
  EXPECT_GE(cc.tail_hits, 1u);
  EXPECT_EQ(cc.tail_misses, misses_after_first);  // no new tail work
  // The memoized tail is bit-identical to the freshly computed one.
  EXPECT_EQ(second[2].placement, first[1].placement);
  EXPECT_EQ(second[2].throughput, first[1].throughput);
  EXPECT_EQ(second[2].relative, first[1].relative);
}

TEST(AllocationService, ReportRequestsMatchMemoizedNumbers) {
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), pump_config());
  std::map<std::uint64_t, AllocResponse> plain, reported;
  {
    std::vector<AllocRequest> reqs;
    reqs.push_back(request_for(1, test::make_chain(5)));
    run_requests(svc, std::move(reqs), plain);
  }
  {
    auto req = request_for(2, test::make_chain(5));
    req.report = true;  // full diagnostics path, off the memoized tail
    std::vector<AllocRequest> reqs;
    reqs.push_back(std::move(req));
    run_requests(svc, std::move(reqs), reported);
  }
  EXPECT_EQ(reported[2].throughput, plain[1].throughput);
  EXPECT_EQ(reported[2].relative, plain[1].relative);
}

TEST(AllocationService, ShedsFailLoudlyWhenQueueIsFull) {
  ServeConfig cfg = pump_config();
  cfg.queue_depth = 2;
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), cfg);
  bool responded = false;
  EXPECT_TRUE(svc.submit(request_for(1, test::make_chain(4)), nullptr));
  EXPECT_TRUE(svc.submit(request_for(2, test::make_chain(4)), nullptr));
  // Queue full: submit returns false and the callback is NEVER invoked.
  EXPECT_FALSE(svc.submit(request_for(3, test::make_chain(4)),
                          [&](AllocResponse) { responded = true; }));
  EXPECT_FALSE(responded);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.accepted, 2u);
  svc.pump();
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST(AllocationService, BadRequestFailsAloneNotTheBatch) {
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), pump_config());
  auto bad = request_for(1, test::make_chain(4));
  bad.spec.num_devices = 0;  // simulator construction rejects this
  std::vector<AllocRequest> reqs;
  reqs.push_back(std::move(bad));
  reqs.push_back(request_for(2, test::make_chain(4)));
  std::map<std::uint64_t, AllocResponse> out;
  run_requests(svc, std::move(reqs), out);
  EXPECT_EQ(out[1].status, ResponseStatus::Error);
  EXPECT_FALSE(out[1].error.empty());
  EXPECT_EQ(out[2].status, ResponseStatus::Ok) << out[2].error;
  EXPECT_EQ(svc.stats().errors, 1u);
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST(AllocationService, ThreadedDrainAnswersEverythingBeforeStop) {
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 64;
  cfg.max_batch = 4;
  cfg.batch_window_us = 50;
  AllocationService svc(test_policy(), rl::coarsen_only_placer(), cfg);
  std::atomic<std::size_t> ok{0};
  std::size_t accepted = 0;
  for (std::uint64_t id = 1; id <= 16; ++id) {
    if (svc.submit(request_for(id, test::make_chain(3 + id % 5)), [&](AllocResponse res) {
          if (res.status == ResponseStatus::Ok) ok.fetch_add(1);
        })) {
      ++accepted;
    }
  }
  svc.drain();
  EXPECT_EQ(ok.load(), accepted);
  svc.stop();
  svc.stop();  // idempotent
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_EQ(s.errors, 0u);
}

TEST(AllocationService, ThreadedWorkersMatchPumpBitForBit) {
  // Service workers run every fan-out site (GEMM row panels, parallel
  // bisection) inline; pump() on this thread fans both out over the global
  // pool. Graphs of 128+ nodes batched together put the encoder GEMMs above
  // the panel fan-out threshold, and 10 devices give the bisection tree a
  // frontier to split, so the two services take different thread paths that
  // must produce bit-identical placements.
  ThreadPool::configure_global(4);  // no-op if the pool is already running
  gen::GeneratorConfig gcfg = gen::setting_config(gen::Setting::Medium);
  gcfg.topology.min_nodes = 128;
  const std::vector<graph::StreamGraph> graphs = gen::generate_graphs(gcfg, 6, 1601);
  const sim::ClusterSpec spec = rl::to_cluster_spec(gcfg.workload);
  auto requests = [&] {
    std::vector<AllocRequest> reqs;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      AllocRequest req = request_for(i + 1, graphs[i], /*best_of=*/2);
      req.spec = spec;
      reqs.push_back(std::move(req));
    }
    return reqs;
  };

  AllocationService pumped(test_policy(), rl::metis_placer(), pump_config());
  std::map<std::uint64_t, AllocResponse> expected;
  run_requests(pumped, requests(), expected);

  ServeConfig cfg = pump_config();
  cfg.workers = 2;
  cfg.batch_window_us = 50;
  AllocationService threaded(test_policy(), rl::metis_placer(), cfg);
  Mutex mu;
  std::map<std::uint64_t, AllocResponse> got;
  for (AllocRequest& req : requests()) {
    const std::uint64_t id = req.id;
    ASSERT_TRUE(threaded.submit(std::move(req), [&mu, &got, id](AllocResponse res) {
      MutexLock lock(mu);
      got[id] = std::move(res);
    }));
  }
  threaded.drain();
  threaded.stop();

  MutexLock lock(mu);
  ASSERT_EQ(got.size(), graphs.size());
  for (const auto& [id, want] : expected) {
    ASSERT_EQ(want.status, ResponseStatus::Ok) << want.error;
    const AllocResponse& res = got[id];
    EXPECT_EQ(res.status, ResponseStatus::Ok) << res.error;
    EXPECT_EQ(res.placement, want.placement) << "request " << id;
    EXPECT_EQ(res.throughput, want.throughput) << "request " << id;
    EXPECT_EQ(res.relative, want.relative) << "request " << id;
  }
}

}  // namespace
}  // namespace sc::serve
