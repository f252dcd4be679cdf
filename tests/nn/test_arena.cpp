// Tensor arena: recycled autograd nodes must be indistinguishable from fresh
// allocations (values, gradients) while the stats counters show that steady
// state training traffic is served from the free list.
#include "nn/arena.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

/// A small forward+backward step exercising GEMM, broadcasting, tanh and
/// reductions, returning the loss value and parameter gradient.
std::pair<double, std::vector<double>> step(Tensor& w, std::uint64_t seed) {
  Rng rng(seed);
  const Tensor x = Tensor::randn({4, 6}, rng, 0.5, false);
  Tensor loss = mean(tanh_op(matmul(x, w)));
  loss.backward();
  auto out = std::make_pair(loss.item(), w.grad());
  w.zero_grad();
  return out;
}

TEST(Arena, SteadyStateReusesNodes) {
  arena::trim_thread_pool();
  Rng rng(1);
  Tensor w = Tensor::randn({6, 3}, rng, 0.5, true);
  step(w, 100);  // warm-up populates the free list
  arena::reset_stats();
  for (int it = 0; it < 8; ++it) step(w, 101 + static_cast<std::uint64_t>(it));
  const arena::ArenaStats s = arena::stats();
  EXPECT_GT(s.acquires, 0u);
  // After warm-up the per-step graph has a fixed node count, so every
  // allocation is a recycled node.
  EXPECT_EQ(s.fresh_allocs, 0u);
  EXPECT_EQ(s.reuses, s.acquires);
  EXPECT_GT(s.high_water_bytes, 0u);
}

TEST(Arena, RecycledNodesStartWithZeroGrad) {
  // A released node keeps its buffers but must not leak its gradient into the
  // next op that reuses it (ensure_grad skips re-zeroing when sizes match).
  arena::trim_thread_pool();
  Rng rng(4);
  const Tensor x = Tensor::randn({2, 2}, rng, 1.0, true);
  {
    Tensor loss = sum(tanh_op(x));
    loss.backward();  // intermediate (2,2) node now carries nonzero grad
  }
  // The tanh output was released with grad set; the next same-sized op must
  // reuse it and still see a clean gradient.
  Tensor y = tanh_op(x);
  Tensor loss = sum(y);
  loss.backward();
  for (const double g : y.grad()) EXPECT_EQ(g, 1.0);
}

TEST(Arena, TrimEmptiesThisThreadsPool) {
  Rng rng(5);
  Tensor w = Tensor::randn({6, 3}, rng, 0.5, true);
  step(w, 500);
  arena::trim_thread_pool();
  const arena::ArenaStats s = arena::stats();
  // Pools on other (worker) threads may hold nodes; this thread's share of
  // pooled bytes is gone, so immediately re-running a step re-allocates.
  arena::reset_stats();
  step(w, 501);
  EXPECT_GT(arena::stats().fresh_allocs, 0u);
  (void)s;
}

}  // namespace
}  // namespace sc::nn
