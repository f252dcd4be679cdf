// Concurrency stress tests, written to run under ThreadSanitizer
// (-DSC_SANITIZE=thread). Every test name contains "Stress" so CI can select
// exactly this suite with `ctest -R Stress`. The assertions are secondary;
// the point is to drive the thread pool, the episode cache and the parallel
// train_epoch path hard enough that any data race is actually executed and
// reported by TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gen/dataset.hpp"
#include "gen/generator.hpp"
#include "gnn/features.hpp"
#include "gnn/policy.hpp"
#include "graph/rates.hpp"
#include "graph/weighted_graph.hpp"
#include "nn/ops.hpp"
#include "partition/mlpart.hpp"
#include "rl/episode_cache.hpp"
#include "rl/reinforce.hpp"

namespace sc {
namespace {

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  // Several external threads share one pool and issue parallel_for
  // concurrently. Each caller writes a disjoint result range; the pool's
  // queue is the shared state under test, each call's claim state its own.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kItems = 512;
  std::vector<std::vector<int>> results(kCallers, std::vector<int>(kItems, 0));

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &results, c] {
      for (int round = 0; round < 10; ++round) {
        pool.parallel_for(kItems, [&results, c](std::size_t i) { ++results[c][i]; });
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (const auto& r : results) {
    for (const int v : r) EXPECT_EQ(v, 10);
  }
}

TEST(ThreadPoolStress, SubmitWaitChurn) {
  // Rapid back-to-back calls from threads sharing one pool, with tiny loop
  // bodies so the queue empties and refills constantly (exercises each
  // call's notify path at its pending == 0 edge).
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &total] {
      for (int round = 0; round < 50; ++round) {
        pool.parallel_for(20, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(total.load(), 4u * 50u * 20u);
}

TEST(ThreadPoolStress, ClaimStateCreateDestroyChurn) {
  // Thousands of short-lived calls from four threads, each with its own
  // claim state and its own closure on the caller's stack. A call's late
  // helpers may still be releasing that state after the call returned and
  // the closure is gone; ASan/TSan flag any use-after-free of either.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &total, c] {
      for (int round = 0; round < 2000; ++round) {
        const std::size_t tasks = 2 + static_cast<std::size_t>(round + c) % 3;
        pool.parallel_for(tasks, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  std::uint64_t expected = 0;
  for (int c = 0; c < 4; ++c) {
    for (int round = 0; round < 2000; ++round) expected += 2 + (round + c) % 3;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolStress, ConcurrentCallersOwnTheirErrors) {
  // Callers share one pool; every other call of the odd callers throws. Each
  // failing call surfaces exactly its own error, and the even callers never
  // see one, however their chunks interleave with the failing ones.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 100;
  std::vector<int> caught(kCallers, 0);
  std::vector<int> foreign(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &caught, &foreign, c] {
      for (int round = 0; round < kRounds; ++round) {
        const bool fail = c % 2 == 1 && round % 2 == 0;
        try {
          pool.parallel_for(24, [fail, c](std::size_t i) {
            if (fail && i == 11) throw std::runtime_error(std::to_string(c));
          });
        } catch (const std::runtime_error& e) {
          if (e.what() == std::to_string(c)) {
            ++caught[c];
          } else {
            ++foreign[c];
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(caught[c], c % 2 == 1 ? kRounds / 2 : 0) << "caller " << c;
    EXPECT_EQ(foreign[c], 0) << "caller " << c;
  }
}

TEST(ThreadPoolStress, NestedParallelForFallsBackSerially) {
  // parallel_for issued from inside a loop body runs inline, on workers and
  // on the caller alike, while outer calls still fan out. Mixes both in one
  // run.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(128);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    pool.parallel_for(4, [&hits, i](std::size_t) { hits[i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 4);
}

TEST(EpisodeCacheStress, ConcurrentLookupInsertEvict) {
  // Small capacity forces the FIFO eviction path under contention; readers
  // and writers overlap on the shared_mutex, and the stat counters are
  // updated from every thread.
  rl::EpisodeCache cache(/*capacity=*/32);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kMasks = 128;

  std::vector<gnn::EdgeMask> masks(kMasks);
  std::vector<std::uint64_t> keys(kMasks);
  for (std::size_t m = 0; m < kMasks; ++m) {
    gnn::EdgeMask mask(70);
    for (std::size_t b = 0; b < mask.size(); ++b) mask[b] = ((m >> (b % 7)) & 1) ? 1 : 0;
    keys[m] = rl::hash_mask(mask);
    masks[m] = std::move(mask);
  }

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        for (std::size_t m = t; m < kMasks; m += kThreads) {
          const auto hit = cache.lookup(keys[m], masks[m]);
          if (hit) {
            // Memoized data must match what any thread inserted for this mask.
            EXPECT_EQ(hit->mask, masks[m]);
            EXPECT_DOUBLE_EQ(hit->reward, static_cast<double>(m) / kMasks);
          } else {
            rl::Episode ep;
            ep.mask = masks[m];
            ep.reward = static_cast<double>(m) / kMasks;
            ep.compression = 2.0;
            cache.insert(keys[m], std::move(ep));
          }
          if (m % 64 == 63) (void)cache.size();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.collisions(), 0u);
}

TEST(RewardHotPathStress, WorkspaceChurnAcrossThreads) {
  // Hammers the thread_local hot-path workspaces (contraction scratch,
  // partition workspace, FM scratch) from a shared pool: each task evaluates
  // a mask on a graph whose size differs from the previous task's, so every
  // worker's buffers shrink and grow continuously. Workspaces are per-thread
  // by construction — TSan verifies no state actually leaks across workers —
  // and the rewards must match a serial, in-order evaluation exactly.
  gen::GeneratorConfig big_cfg;
  big_cfg.topology.min_nodes = 50;
  big_cfg.topology.max_nodes = 80;
  big_cfg.workload.num_devices = 4;
  gen::GeneratorConfig small_cfg = big_cfg;
  small_cfg.topology.min_nodes = 6;
  small_cfg.topology.max_nodes = 12;
  auto graphs = gen::generate_graphs(big_cfg, 3, 71);
  for (auto& g : gen::generate_graphs(small_cfg, 3, 72)) graphs.push_back(std::move(g));
  const auto contexts = rl::make_contexts(graphs, rl::to_cluster_spec(big_cfg.workload));
  const auto placer = rl::metis_placer();

  // (graph, mask) work items alternating big / small shapes.
  struct Item {
    std::size_t ctx;
    gnn::EdgeMask mask;
  };
  std::vector<Item> items;
  Rng rng(2026);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      // Interleave shapes: 0,3,1,4,2,5 (big,small,big,small,...).
      const std::size_t ctx = (c % 2 == 0) ? c / 2 : contexts.size() / 2 + c / 2;
      gnn::EdgeMask mask(contexts[ctx].graph->edges().size(), 0);
      for (auto& b : mask) b = rng.bernoulli(0.4) ? 1 : 0;
      items.push_back({ctx, std::move(mask)});
    }
  }

  // Reference: every item evaluated in order on this thread, with nothing
  // fanned out.
  std::vector<double> serial(items.size());
  {
    const ThreadPool::InlineScope inline_scope;
    for (std::size_t i = 0; i < items.size(); ++i) {
      serial[i] = rl::evaluate_mask(contexts[items[i].ctx], items[i].mask, placer).reward;
    }
  }

  ThreadPool pool(4);
  std::vector<double> parallel_fast(items.size(), -1.0);
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(items.size(), [&](std::size_t i) {
      parallel_fast[i] = rl::evaluate_mask(contexts[items[i].ctx], items[i].mask, placer).reward;
    });
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parallel_fast[i], serial[i]) << "item " << i;
  }
}

TEST(ParallelBisectionStress, ConcurrentSubtreeWorkspaces) {
  // Drives the recursive-bisection BFS driver hard: wide k so the frontier
  // fans many jobs onto the pool at once, plus several caller threads
  // partitioning concurrently on the same pool. Each pool worker reuses its
  // thread_local PartitionWorkspace / FmScratch across jobs from *different*
  // callers, while helpers read and write the jobs held in each caller's
  // own workspace — TSan verifies those workspaces never leak across
  // threads, and the exact-equality check below verifies jobs never leak
  // state across repeats either.
  Rng gr(2027);
  std::vector<double> weights(260);
  for (double& w : weights) w = 0.5 + gr.uniform();
  std::vector<graph::WeightedEdge> edges;
  for (std::size_t v = 1; v < weights.size(); ++v) {
    edges.push_back({static_cast<graph::NodeId>(v - 1), static_cast<graph::NodeId>(v),
                     0.1 + gr.uniform()});
  }
  for (int e = 0; e < 400; ++e) {
    const auto a = static_cast<graph::NodeId>(gr.index(weights.size()));
    const auto b = static_cast<graph::NodeId>(gr.index(weights.size()));
    if (a != b) edges.push_back({a, b, 0.1 + gr.uniform()});
  }
  const graph::WeightedGraph g(weights, edges);

  ThreadPool pool(4);
  ThreadPool* prev_pool = partition::set_parallel_bisection_pool(&pool);
  partition::PartitionOptions opts;
  opts.seed = 11;
  const partition::MultilevelPartitioner part(opts);
  const std::vector<int> expected = part.partition(g, 16);

  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<int>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 4; ++round) got[c] = part.partition(g, 16);
    });
  }
  for (std::thread& t : callers) t.join();
  partition::set_parallel_bisection_pool(prev_pool);

  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(got[c], expected) << "caller " << c;
  }
}

TEST(TrainEpochStress, ParallelEpochsSharedPool) {
  // Drives the real parallel train_epoch path (batched forward + episode
  // cache + dedup fan-out) on a dedicated pool, the configuration where a
  // race between workers would corrupt episodes or cache entries.
  gen::GeneratorConfig gcfg;
  gcfg.topology.min_nodes = 12;
  gcfg.topology.max_nodes = 18;
  gcfg.workload.num_devices = 3;
  const auto graphs = gen::generate_graphs(gcfg, 6, 29);
  auto contexts = rl::make_contexts(graphs, rl::to_cluster_spec(gcfg.workload));

  ThreadPool pool(4);
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  rl::TrainerConfig cfg;
  cfg.seed = 17;
  cfg.pool = &pool;
  rl::ReinforceTrainer trainer(policy, contexts, rl::metis_placer(), cfg);

  double best = 0.0;
  for (int e = 0; e < 3; ++e) best = trainer.train_epoch().mean_best_reward;
  EXPECT_GT(best, 0.0);
}

TEST(NnFanOutStress, ConcurrentLargeGraphForwardBackward) {
  // Two external threads run with-grad Large-graph forward and backward
  // passes at once, while the nn ops fan their row panels out over the one
  // shared global pool. Logits and parameter gradients must equal a serial
  // reference bit for bit.
  ThreadPool::configure_global(4);  // no-op once the pool exists
  const gen::GeneratorConfig gcfg = gen::setting_config(gen::Setting::Large);
  const auto graphs = gen::generate_graphs(gcfg, 2, 53);
  const sim::ClusterSpec spec = rl::to_cluster_spec(gcfg.workload);
  std::vector<gnn::GraphFeatures> features;
  for (const auto& g : graphs) {
    features.push_back(gnn::extract_features(g, graph::compute_load_profile(g), spec));
  }

  struct Pass {
    std::vector<double> logits;
    std::vector<std::vector<double>> grads;
  };
  // Each pass owns its policy, so concurrent passes never share a gradient.
  auto pass = [&features](std::size_t gi) {
    const gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
    const nn::Tensor logits = policy.logits(features[gi]);
    std::vector<int> mask(logits.size());
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = static_cast<int>(i % 2);
    nn::masked_logprob_sum(logits, {mask}, {1.0}, 1.0).backward();
    Pass p;
    p.logits = logits.value();
    for (const nn::Tensor& t : policy.parameters()) p.grads.push_back(t.grad());
    return p;
  };
  std::vector<Pass> reference;
  {
    ThreadPool::InlineScope serial;
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) reference.push_back(pass(gi));
  }

  constexpr std::size_t kCallers = 2;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<Pass>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&got, &pass, c] {
      for (std::size_t r = 0; r < kRounds; ++r) got[c].push_back(pass((c + r) % 2));
    });
  }
  for (std::thread& t : callers) t.join();

  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const Pass& want = reference[(c + r) % 2];
      EXPECT_TRUE(got[c][r].logits == want.logits) << "caller " << c << " round " << r;
      EXPECT_TRUE(got[c][r].grads == want.grads) << "caller " << c << " round " << r;
    }
  }
}

TEST(NnFanOutStress, LateHelpersOutliveTheCall) {
  // Two external threads issue thousands of row-panel fan-outs just above
  // the 128-row threshold while a third keeps every global-pool worker busy
  // with short tasks, so the helpers a fan-out queues often start
  // after that call has returned and its closure is gone. Such a helper must
  // find nothing to claim and exit without touching it; every call's values
  // must equal an inline reference.
  ThreadPool::configure_global(4);  // no-op once the pool exists
  constexpr std::size_t kRows = 130;  // three 64-row panels
  constexpr std::size_t kWidth = 24;
  constexpr std::size_t kCallers = 2;
  constexpr std::size_t kCalls = 2000;
  Rng rng(61);
  const nn::Tensor base = nn::Tensor::randn({kRows, kWidth}, rng, 0.8, false);
  std::vector<std::size_t> index(kRows);
  for (std::size_t i = 0; i < kRows; ++i) index[i] = (i * 7 + 3) % kRows;
  std::vector<double> reference;
  {
    ThreadPool::InlineScope serial;
    reference = nn::gather_add_tanh(base, index, nn::Tensor()).value();
  }

  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    while (!stop.load()) {
      ThreadPool::global().parallel_for(8, [](std::size_t) {
        std::atomic<int> spin{0};
        while (spin.fetch_add(1, std::memory_order_relaxed) < 2000) {
        }
      });
    }
  });
  std::vector<std::size_t> mismatched(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t k = 0; k < kCalls; ++k) {
        if (nn::gather_add_tanh(base, index, nn::Tensor()).value() != reference) {
          ++mismatched[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  stop.store(true);
  busy.join();
  for (std::size_t c = 0; c < kCallers; ++c) EXPECT_EQ(mismatched[c], 0u) << "caller " << c;
}

}  // namespace
}  // namespace sc
