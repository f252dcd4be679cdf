#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../testutil.hpp"

namespace sc {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  // Back-to-back calls on one pool: each runs all of its indices, whatever
  // the previous call's late helpers are still doing.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int call = 0; call < 10; ++call) {
    pool.parallel_for(100, [&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100 * (call + 1));
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForBlocksUntilComplete) {
  // parallel_for is a barrier: it must not return before every task ran.
  // Callers (e.g. ReinforceTrainer::evaluate) rely on this and do not issue
  // a separate wait() afterwards.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int x = 0;
  pool.parallel_for(1, [&](std::size_t) { ++x; });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(2, [](std::size_t i) {
                 if (i == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The error is reported once; the pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(2, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 2);
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t i) {
                 if (i == 5) throw std::runtime_error("chunk");
               }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentCallersDoNotWaitOnEachOther) {
  // Two external threads share one pool. Caller A's chunk blocks until
  // caller B's parallel_for has returned: with a pool-wide wait, B would wait
  // on A's blocked chunk, so the timeout turns that regression into a failure
  // instead of a hang. Then A's second call throws while B runs again: only
  // A sees the exception.
  constexpr auto kTimeout = std::chrono::seconds(30);
  ThreadPool pool(4);
  std::promise<void> a_blocked;
  std::promise<void> b_returned;
  std::shared_future<void> b_done = b_returned.get_future().share();
  bool a_timed_out = false;
  bool a_caught = false;

  std::thread caller_a([&] {
    pool.parallel_for(2, [&](std::size_t i) {
      if (i != 0) return;
      a_blocked.set_value();
      if (b_done.wait_for(kTimeout) != std::future_status::ready) a_timed_out = true;
    });
    try {
      pool.parallel_for(16, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("caller A");
      });
    } catch (const std::runtime_error&) {
      a_caught = true;
    }
  });
  std::thread caller_b([&] {
    a_blocked.get_future().wait();
    std::vector<int> hits(64, 0);
    pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    b_returned.set_value();
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
    EXPECT_NO_THROW(pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; }));
  });
  caller_a.join();
  caller_b.join();
  EXPECT_FALSE(a_timed_out) << "caller B waited on caller A's chunk";
  EXPECT_TRUE(a_caught);
}

TEST(ThreadPool, InlineScopeRunsParallelForOnCallingThread) {
  ThreadPool pool(4);
  ASSERT_FALSE(ThreadPool::in_worker());
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(257);
  {
    ThreadPool::InlineScope scope;
    EXPECT_TRUE(ThreadPool::in_worker());
    {
      ThreadPool::InlineScope nested;
      EXPECT_TRUE(ThreadPool::in_worker());
    }
    EXPECT_TRUE(ThreadPool::in_worker());
    pool.parallel_for(ran_on.size(), [&ran_on](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
  }
  EXPECT_FALSE(ThreadPool::in_worker());
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, self);
  // Outside the scope the same call fans out again. Each of two indices
  // waits until the other has started, so both finish in time only if they
  // run at once: index 0 on the caller, index 1 on a helper. Every index
  // runs as a worker, the caller's own included, so a body never fans out.
  constexpr auto kTimeout = std::chrono::seconds(10);
  std::atomic<int> started{0};
  std::vector<std::thread::id> fanned(2);
  bool as_worker[2] = {false, false};
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  pool.parallel_for(fanned.size(), [&](std::size_t i) {
    fanned[i] = std::this_thread::get_id();
    as_worker[i] = ThreadPool::in_worker();
    started.fetch_add(1);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_LT(std::chrono::steady_clock::now(), deadline) << "no helper ran beside the caller";
  EXPECT_EQ(fanned[0], self);
  EXPECT_NE(fanned[1], self);
  EXPECT_TRUE(as_worker[0] && as_worker[1]);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPool, SizeMatchesRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(8);
  std::vector<long> out(10000, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<long>(i); });
  const long total = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(total, 10000L * 9999L / 2);
}

TEST(ThreadPool, ClaimForCoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 257u}) {
      SCOPED_TRACE(::testing::Message() << "workers=" << workers << " n=" << n);
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
      // parallel_for returns only after every index has run.
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ClaimForRethrowsFirstExceptionOnceAndStartsNothingAfter) {
  // With every worker held, the caller claims the indices alone and in
  // order: index 5 throws, so exactly indices 0..5 start. The helpers queued
  // behind the gate start after the call returned and must start nothing.
  std::atomic<int> started{0};
  {
    ThreadPool pool(4);
    test::WorkerGate gate(pool);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&started](std::size_t i) {
                                     started.fetch_add(1);
                                     if (i == 5) throw std::runtime_error("panel");
                                   }),
                 std::runtime_error);
    EXPECT_EQ(started.load(), 6);
  }  // the pool runs every queued helper before its workers join
  EXPECT_EQ(started.load(), 6);

  // With free workers every index throws: the caller sees one exception,
  // nothing starts once the call has returned, and the next call carries no
  // stale error.
  std::atomic<int> thrown{0};
  int caught = 0;
  {
    ThreadPool pool(4);
    try {
      pool.parallel_for(256, [&thrown](std::size_t) {
        thrown.fetch_add(1);
        throw std::runtime_error("every panel");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    // Each thread's first throw marks the call failed before that thread
    // claims again, so the caller and its four helpers start one index each
    // at most.
    EXPECT_LE(thrown.load(), 5) << "indices kept starting after the first exception";
    const int at_return = thrown.load();
    std::atomic<int> count{0};
    EXPECT_NO_THROW(pool.parallel_for(64, [&count](std::size_t) { count.fetch_add(1); }));
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(thrown.load(), at_return);
  }
}

TEST(ThreadPool, ClaimForReturnsBeforeALateHelperRuns) {
  // Both workers are held, so the helpers this call queues cannot start: the
  // caller must claim every index itself and return without waiting for them.
  std::atomic<int> calls{0};
  {
    ThreadPool pool(2);
    test::WorkerGate gate(pool);
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    pool.parallel_for(8, [&](std::size_t) {
      calls.fetch_add(1);
      if (std::this_thread::get_id() != self) elsewhere.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 8);
    EXPECT_EQ(elsewhere.load(), 0);
    gate.release();  // the late helpers run now and find nothing to claim
  }
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ClaimForFromAWorkerRunsInline) {
  // A parallel_for issued from a loop body runs every index on that body's
  // thread, the caller's own indices included (they run as a worker's do).
  ThreadPool pool(2);
  std::vector<std::thread::id> outer(4);
  std::vector<std::vector<std::thread::id>> inner(4, std::vector<std::thread::id>(16));
  pool.parallel_for(outer.size(), [&](std::size_t o) {
    outer[o] = std::this_thread::get_id();
    pool.parallel_for(inner[o].size(), [&, o](std::size_t i) {
      inner[o][i] = std::this_thread::get_id();
    });
  });
  for (std::size_t o = 0; o < outer.size(); ++o) {
    for (const std::thread::id id : inner[o]) EXPECT_EQ(id, outer[o]);
  }
}

}  // namespace
}  // namespace sc
