// Blocked/parallel GEMM kernels must agree with the naive reference loops
// (gemm_oracle.hpp) within 1e-12 per element on randomized shapes (including
// degenerate ones), and matmul/matmul_nt forward + backward results must
// match the same products computed with the reference loops.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "gemm_oracle.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

std::vector<double> random_values(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (double& x : v) x = rng.normal();
  return v;
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12) << "element " << i;
  }
}

TEST(GemmBlocked, MatchesNaiveOnRandomShapes) {
  Rng rng(101);
  // A spread of shapes: degenerate, tiny, off-by-one around the 4-row
  // micro-tile, and large enough to cross the parallel threshold.
  const std::size_t shapes[][3] = {{0, 3, 4},  {3, 0, 4},  {3, 4, 0},  {1, 1, 1},
                                   {4, 4, 4},  {5, 7, 3},  {8, 9, 13}, {17, 5, 21},
                                   {33, 6, 2}, {130, 70, 34}};
  for (const auto& s : shapes) {
    const std::size_t n = s[0], k = s[1], m = s[2];
    const auto a = random_values(n * k, rng);
    const auto b_nn = random_values(k * m, rng);

    std::vector<double> naive(n * m, 0.5), blocked(n * m, 0.5);
    oracle::gemm_nn(a.data(), b_nn.data(), naive.data(), n, k, m, false);
    kernels::gemm_nn(a.data(), b_nn.data(), blocked.data(), n, k, m, false);
    expect_close(naive, blocked);

    // Accumulating variant must add on top of existing contents.
    std::vector<double> naive_acc(n * m, 0.25), blocked_acc(n * m, 0.25);
    oracle::gemm_nn(a.data(), b_nn.data(), naive_acc.data(), n, k, m, true);
    kernels::gemm_nn(a.data(), b_nn.data(), blocked_acc.data(), n, k, m, true);
    expect_close(naive_acc, blocked_acc);

    // gemm_nt: A (n,m') · B (k',m')^T with m' = k, k' = m.
    const auto b_nt = random_values(m * k, rng);
    std::vector<double> naive_nt(n * m, 0.125), blocked_nt(n * m, 0.125);
    oracle::gemm_nt(a.data(), b_nt.data(), naive_nt.data(), n, k, m);
    kernels::gemm_nt(a.data(), b_nt.data(), blocked_nt.data(), n, k, m);
    expect_close(naive_nt, blocked_nt);

    // gemm_tn: A (n,k)^T · B (n,m).
    const auto b_tn = random_values(n * m, rng);
    std::vector<double> naive_tn(k * m, -0.5), blocked_tn(k * m, -0.5);
    oracle::gemm_tn(a.data(), b_tn.data(), naive_tn.data(), n, k, m);
    kernels::gemm_tn(a.data(), b_tn.data(), blocked_tn.data(), n, k, m);
    expect_close(naive_tn, blocked_tn);
  }
}

TEST(GemmBlocked, EmptyInnerDimensionLeavesOutputsConsistent) {
  // k = 0: gemm_nn without accumulation must produce zeros; the accumulating
  // kernels must leave C untouched.
  const double* empty = nullptr;
  std::vector<double> c(6, 3.0);
  kernels::gemm_nn(empty, empty, c.data(), 2, 0, 3, false);
  for (const double x : c) EXPECT_EQ(x, 0.0);

  std::vector<double> c_acc(6, 3.0);
  kernels::gemm_nt(empty, empty, c_acc.data(), 2, 0, 3);
  kernels::gemm_tn(empty, empty, c_acc.data(), 0, 2, 3);
  for (const double x : c_acc) EXPECT_EQ(x, 3.0);
}

TEST(GemmBlocked, MatmulForwardBackwardMatchesNaivePath) {
  constexpr std::size_t n = 19, k = 11, m = 9;
  Rng rng(7);
  Tensor a = Tensor::randn({n, k}, rng, 1.0, true);
  Tensor b = Tensor::randn({k, m}, rng, 1.0, true);
  Tensor bt = Tensor::randn({m, k}, rng, 1.0, true);

  Tensor out = sum(add(matmul(a, b), matmul_nt(a, bt)));
  out.backward();

  // The same loss and gradients from the reference loops: with
  // y = a·b + a·bt^T and d(sum)/dy = 1, a.grad = 1·b^T + 1·bt,
  // b.grad = a^T·1 and bt.grad = 1^T·a.
  const double* av = a.value().data();
  std::vector<double> y(n * m), y_nt(n * m, 0.0);
  oracle::gemm_nn(av, b.value().data(), y.data(), n, k, m, false);
  oracle::gemm_nt(av, bt.value().data(), y_nt.data(), n, k, m);
  double loss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) loss += y[i] + y_nt[i];
  const std::vector<double> ones(n * m, 1.0);
  std::vector<double> ga(n * k, 0.0), gb(k * m, 0.0), gbt(m * k, 0.0);
  oracle::gemm_nt(ones.data(), b.value().data(), ga.data(), n, m, k);
  oracle::gemm_nn(ones.data(), bt.value().data(), ga.data(), n, m, k, true);
  oracle::gemm_tn(av, ones.data(), gb.data(), n, k, m);
  oracle::gemm_tn(ones.data(), av, gbt.data(), n, m, k);

  expect_close({loss}, out.value());
  expect_close(ga, a.grad());
  expect_close(gb, b.grad());
  expect_close(gbt, bt.grad());
}

// Edge-mask scoring on a graph with no edges produces empty matmuls; the
// kernels must handle the zero-row case without touching memory.
TEST(GemmBlocked, ZeroRowMatmul) {
  Rng rng(3);
  const Tensor a = Tensor::randn({0, 5}, rng, 1.0, true);
  const Tensor b = Tensor::randn({5, 4}, rng, 1.0, true);
  const Tensor out = matmul(a, b);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
}

}  // namespace
}  // namespace sc::nn
