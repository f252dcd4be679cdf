// Parity of the SIMD-dispatched kernels against the scalar reference tier
// (DESIGN.md §5.5).
//
// Tolerance policy: 0 ULP. On the default build (-O3, no -march/-ffast-math)
// every vector kernel in nn/simd.hpp is bit-identical to the scalar reference
// by construction — multiplies and adds are emitted separately under
// fp-contract=off, each SIMD lane owns one output element with the scalar
// accumulation order, and remainder columns run the exact scalar expressions.
// These tests therefore assert exact equality (EXPECT_EQ on doubles). If a
// build ever forces FP contraction on the *scalar reference* TU
// (-march=native with -ffast-math style flags), the guarantee documented in
// nn/simd.hpp degrades to ~1 ULP per fused pair and this suite is the loud
// early warning.
//
// Shapes deliberately include 1s, primes, and non-multiples of the 4/8-wide
// panels so every masked tail and remainder path executes.
#include "nn/simd.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

struct Shape {
  std::size_t n, k, m;
};

const Shape kShapes[] = {
    {1, 1, 1}, {2, 3, 1},  {5, 7, 3},    {17, 5, 21},
    {33, 6, 2}, {8, 9, 13}, {64, 48, 24}, {130, 70, 34},
};

std::vector<double> randn(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

void expect_bitwise(const std::vector<double>& want, const std::vector<double>& got,
                    const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " diverges at element " << i;
  }
}

/// Every tier available on this machine, scalar first. Tiers the hardware
/// lacks are clamped away by simd::set_tier, so the sweep is exactly the set
/// the dispatcher could ever pick here.
std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::Scalar};
  for (const int t : {1, 2, 3}) {
    if (t <= static_cast<int>(simd::detect())) tiers.push_back(static_cast<simd::Tier>(t));
  }
  return tiers;
}

/// Restores the active tier on scope exit. use(true) selects the tier that
/// was active when the guard was made (the one production dispatches on),
/// use(false) the scalar reference tier.
struct DispatchGuard {
  simd::Tier prev_tier = simd::active();
  void use(bool simd_on) const { simd::set_tier(simd_on ? prev_tier : simd::Tier::Scalar); }
  ~DispatchGuard() { simd::set_tier(prev_tier); }
};

TEST(SimdKernels, GemmParityAcrossTiersAndBlocking) {
  DispatchGuard guard;
  Rng rng(2024);
  for (const Shape s : kShapes) {
    const std::vector<double> a = randn(s.n * s.k, rng);
    const std::vector<double> b = randn(s.k * s.m, rng);
    const std::vector<double> ant = randn(s.n * s.m, rng);  // gemm_nt A (n,m)
    const std::vector<double> seed_c = randn(s.n * s.m, rng);

    {
      // Reference: the scalar tier. The SIMD contract is bit-identity
      // against the scalar loops it replaces; the blocked kernels' agreement
      // with the naive loops is a separate, tolerance-based contract covered
      // by test_gemm_blocked.
      guard.use(false);
      std::vector<double> ref_nn(s.n * s.m);
      kernels::gemm_nn(a.data(), b.data(), ref_nn.data(), s.n, s.k, s.m, false);
      std::vector<double> ref_nn_acc = seed_c;
      kernels::gemm_nn(a.data(), b.data(), ref_nn_acc.data(), s.n, s.k, s.m, true);
      std::vector<double> ref_nt(s.n * s.k, 0.0);
      kernels::gemm_nt(ant.data(), b.data(), ref_nt.data(), s.n, s.m, s.k);
      std::vector<double> ref_tn(s.k * s.m, 0.0);
      kernels::gemm_tn(a.data(), ant.data(), ref_tn.data(), s.n, s.k, s.m);

      for (const simd::Tier tier : available_tiers()) {
        simd::set_tier(tier);
        const std::string ctx = std::string("shape {") + std::to_string(s.n) + "," +
                                std::to_string(s.k) + "," + std::to_string(s.m) +
                                "} tier " + simd::tier_name(tier);

        std::vector<double> c(s.n * s.m);
        kernels::gemm_nn(a.data(), b.data(), c.data(), s.n, s.k, s.m, false);
        expect_bitwise(ref_nn, c, (ctx + " gemm_nn").c_str());

        std::vector<double> c_acc = seed_c;
        kernels::gemm_nn(a.data(), b.data(), c_acc.data(), s.n, s.k, s.m, true);
        expect_bitwise(ref_nn_acc, c_acc, (ctx + " gemm_nn+acc").c_str());

        std::vector<double> cnt(s.n * s.k, 0.0);
        kernels::gemm_nt(ant.data(), b.data(), cnt.data(), s.n, s.m, s.k);
        expect_bitwise(ref_nt, cnt, (ctx + " gemm_nt").c_str());

        std::vector<double> ctn(s.k * s.m, 0.0);
        kernels::gemm_tn(a.data(), ant.data(), ctn.data(), s.n, s.k, s.m);
        expect_bitwise(ref_tn, ctn, (ctx + " gemm_tn").c_str());
      }
    }
  }
}

TEST(SimdKernels, ElementwiseOpParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(7);
  // Odd sizes exercise the vector tails of every element-wise loop; bias-row
  // add exercises the per-row broadcast path.
  for (const std::size_t rows : {1u, 3u, 17u}) {
    for (const std::size_t cols : {1u, 5u, 31u}) {
      const Tensor a0 = Tensor::randn({rows, cols}, rng, 1.0, true);
      const Tensor b0 = Tensor::randn({rows, cols}, rng, 1.0, true);
      const Tensor bias0 = Tensor::randn({cols}, rng, 1.0, true);

      struct Run {
        std::vector<double> value, ga, gb;
      };
      const auto run_case = [&](bool simd_on, auto&& build) {
        guard.use(simd_on);
        Tensor a = Tensor::from(a0.value(), a0.shape(), true);
        Tensor b = Tensor::from(b0.value(), b0.shape(), true);
        Tensor bias = Tensor::from(bias0.value(), bias0.shape(), true);
        Tensor out = build(a, b, bias);
        Tensor loss = sum(mul(out, out));
        loss.backward();
        return Run{out.value(), a.data().grad, b.data().grad};
      };
      const auto check = [&](const char* what, auto&& build) {
        const Run on = run_case(true, build);
        const Run off = run_case(false, build);
        expect_bitwise(off.value, on.value, what);
        expect_bitwise(off.ga, on.ga, (std::string(what) + " grad-a").c_str());
        expect_bitwise(off.gb, on.gb, (std::string(what) + " grad-b").c_str());
      };

      check("add", [](Tensor a, Tensor b, Tensor) { return add(a, b); });
      check("add-bias", [](Tensor a, Tensor, Tensor bias) { return add(a, bias); });
      check("sub", [](Tensor a, Tensor b, Tensor) { return sub(a, b); });
      check("mul", [](Tensor a, Tensor b, Tensor) { return mul(a, b); });
      check("scale", [](Tensor a, Tensor, Tensor) { return scale(a, -1.75); });
      check("add_scalar", [](Tensor a, Tensor, Tensor) { return add_scalar(a, 0.5); });
    }
  }
}

TEST(SimdKernels, FusedOpsParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(91);
  const std::size_t n = 23, k = 11, m = 7, edges = 31;
  const Tensor x = Tensor::randn({n, k}, rng, 0.5, false);
  const Tensor w0 = Tensor::randn({k, m}, rng, 0.5, true);
  const Tensor b0 = Tensor::randn({m}, rng, 0.5, true);
  const Tensor base0 = Tensor::randn({n, m}, rng, 0.5, true);
  const Tensor add0 = Tensor::randn({edges, m}, rng, 0.5, true);
  std::vector<std::size_t> index(edges);
  for (std::size_t e = 0; e < edges; ++e) index[e] = rng.index(n);

  const auto run_linear = [&](bool simd_on) {
    guard.use(simd_on);
    Tensor w = Tensor::from(w0.value(), w0.shape(), true);
    Tensor b = Tensor::from(b0.value(), b0.shape(), true);
    Tensor out = linear_tanh(x, w, b);
    sum(out).backward();
    return std::pair(out.value(), std::pair(w.data().grad, b.data().grad));
  };
  const auto lin_on = run_linear(true);
  const auto lin_off = run_linear(false);
  expect_bitwise(lin_off.first, lin_on.first, "linear_tanh value");
  expect_bitwise(lin_off.second.first, lin_on.second.first, "linear_tanh grad-w");
  expect_bitwise(lin_off.second.second, lin_on.second.second, "linear_tanh grad-b");

  const auto run_gather = [&](bool simd_on) {
    guard.use(simd_on);
    Tensor base = Tensor::from(base0.value(), base0.shape(), true);
    Tensor addend = Tensor::from(add0.value(), add0.shape(), true);
    Tensor out = gather_add_tanh(base, index, addend);
    sum(out).backward();
    return std::pair(out.value(), std::pair(base.data().grad, addend.data().grad));
  };
  const auto gat_on = run_gather(true);
  const auto gat_off = run_gather(false);
  expect_bitwise(gat_off.first, gat_on.first, "gather_add_tanh value");
  expect_bitwise(gat_off.second.first, gat_on.second.first, "gather_add_tanh grad-base");
  expect_bitwise(gat_off.second.second, gat_on.second.second, "gather_add_tanh grad-add");
}

TEST(SimdKernels, TierAdministration) {
  DispatchGuard guard;
  // set_tier clamps to the hardware ceiling and returns the previous tier.
  const simd::Tier hw = simd::detect();
  simd::set_tier(simd::Tier::Scalar);
  EXPECT_EQ(simd::active(), simd::Tier::Scalar);
  const simd::Tier prev = simd::set_tier(simd::Tier::Avx512);
  EXPECT_EQ(prev, simd::Tier::Scalar);
  EXPECT_LE(static_cast<int>(simd::active()), static_cast<int>(hw));

  // Name/parse round trips.
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Neon), "neon");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx512), "avx512");
  EXPECT_EQ(simd::parse_tier("off"), simd::Tier::Scalar);
  EXPECT_EQ(simd::parse_tier("scalar"), simd::Tier::Scalar);
  EXPECT_EQ(simd::parse_tier("AVX2"), simd::Tier::Avx2);
  EXPECT_EQ(simd::parse_tier("avx512"), simd::Tier::Avx512);
  EXPECT_EQ(simd::parse_tier("neon"), simd::Tier::Neon);
  EXPECT_EQ(simd::parse_tier("auto"), simd::detect());
  EXPECT_THROW(simd::parse_tier("pentium"), Error);
}

TEST(SimdKernels, MatmulEndToEndParityAcrossToggle) {
  DispatchGuard guard;
  Rng rng(55);
  const Tensor a0 = Tensor::randn({19, 13}, rng, 1.0, true);
  const Tensor b0 = Tensor::randn({13, 9}, rng, 1.0, true);
  const auto run = [&](bool simd_on) {
    guard.use(simd_on);
    Tensor a = Tensor::from(a0.value(), a0.shape(), true);
    Tensor b = Tensor::from(b0.value(), b0.shape(), true);
    Tensor out = matmul(a, b);
    sum(mul(out, out)).backward();
    return std::pair(out.value(), std::pair(a.data().grad, b.data().grad));
  };
  const auto on = run(true);
  const auto off = run(false);
  expect_bitwise(off.first, on.first, "matmul value");
  expect_bitwise(off.second.first, on.second.first, "matmul grad-a");
  expect_bitwise(off.second.second, on.second.second, "matmul grad-b");
}

}  // namespace
}  // namespace sc::nn
