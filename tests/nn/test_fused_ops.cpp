// Fused kernels (linear_tanh, gather_add_tanh, masked_logprob_sum) must be
// numerically interchangeable with their unfused compositions: forward values
// and input gradients agree to well under 1e-12 (bit-identical by
// construction), and the fused backward passes survive finite-difference
// gradient checks on their own.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

/// Checks d(loss)/d(input) against central finite differences (same recipe as
/// test_gradcheck.cpp).
void gradcheck(std::vector<Tensor> inputs,
               const std::function<Tensor(const std::vector<Tensor>&)>& build,
               double tol = 1e-6, double h = 1e-5) {
  Tensor loss = build(inputs);
  loss.backward();

  for (std::size_t t = 0; t < inputs.size(); ++t) {
    auto& val = inputs[t].value();
    const auto& grad = inputs[t].grad();
    for (std::size_t i = 0; i < val.size(); ++i) {
      const double keep = val[i];
      val[i] = keep + h;
      const double up = build(inputs).item();
      val[i] = keep - h;
      const double down = build(inputs).item();
      val[i] = keep;
      const double numeric = (up - down) / (2.0 * h);
      EXPECT_NEAR(grad[i], numeric, tol) << "input " << t << " element " << i;
    }
  }
}

std::vector<Tensor> rand_inputs(std::initializer_list<std::vector<std::size_t>> shapes,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (const auto& s : shapes) out.push_back(Tensor::randn(s, rng, 0.8, true));
  return out;
}

struct RunResult {
  std::vector<double> out;
  std::vector<std::vector<double>> grads;
};

/// Builds fresh inputs from `seed`, runs `build` (which must return the op
/// output), backpropagates sum(mul(out, fixed_weights)) and captures the
/// forward values plus every input gradient.
RunResult run_path(std::uint64_t seed, std::initializer_list<std::vector<std::size_t>> shapes,
                   const std::function<Tensor(const std::vector<Tensor>&)>& build) {
  std::vector<Tensor> in = rand_inputs(shapes, seed);
  Tensor y = build(in);
  Rng wrng(seed + 7919);
  const Tensor w = Tensor::randn(y.shape(), wrng, 1.0, false);
  Tensor loss = sum(mul(y, w));
  loss.backward();
  RunResult r;
  r.out = y.value();
  for (const Tensor& t : in) r.grads.push_back(t.grad());
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.out.size(), b.out.size());
  for (std::size_t i = 0; i < a.out.size(); ++i) {
    EXPECT_EQ(a.out[i], b.out[i]) << "forward element " << i;
  }
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (std::size_t t = 0; t < a.grads.size(); ++t) {
    ASSERT_EQ(a.grads[t].size(), b.grads[t].size());
    for (std::size_t i = 0; i < a.grads[t].size(); ++i) {
      EXPECT_EQ(a.grads[t][i], b.grads[t][i]) << "input " << t << " grad " << i;
    }
  }
}

// ---- fused vs the primitive composition ------------------------------------

TEST(FusedOps, LinearTanhMatchesUnfused) {
  const auto fused = [](const std::vector<Tensor>& in) {
    return linear_tanh(in[0], in[1], in[2]);
  };
  const auto unfused = [](const std::vector<Tensor>& in) {
    return tanh_op(add(matmul(in[0], in[1]), in[2]));
  };
  expect_identical(run_path(21, {{5, 4}, {4, 3}, {3}}, fused),
                   run_path(21, {{5, 4}, {4, 3}, {3}}, unfused));
}

TEST(FusedOps, LinearTanhNoBiasMatchesUnfused) {
  const auto fused = [](const std::vector<Tensor>& in) {
    return linear_tanh(in[0], in[1], Tensor{});
  };
  const auto unfused = [](const std::vector<Tensor>& in) {
    return tanh_op(matmul(in[0], in[1]));
  };
  expect_identical(run_path(22, {{3, 6}, {6, 2}}, fused),
                   run_path(22, {{3, 6}, {6, 2}}, unfused));
}

TEST(FusedOps, GatherAddTanhMatchesUnfused) {
  const std::vector<std::size_t> idx{0, 3, 1, 1, 2, 0, 3};
  const auto fused = [&idx](const std::vector<Tensor>& in) {
    return gather_add_tanh(in[0], idx, in[1]);
  };
  const auto unfused = [&idx](const std::vector<Tensor>& in) {
    return tanh_op(add(gather_rows(in[0], idx), in[1]));
  };
  expect_identical(run_path(23, {{4, 3}, {7, 3}}, fused),
                   run_path(23, {{4, 3}, {7, 3}}, unfused));
}

TEST(FusedOps, GatherAddTanhNoAddendMatchesUnfused) {
  const std::vector<std::size_t> idx{2, 2, 0, 1};
  const auto fused = [&idx](const std::vector<Tensor>& in) {
    return gather_add_tanh(in[0], idx, Tensor{});
  };
  const auto unfused = [&idx](const std::vector<Tensor>& in) {
    return tanh_op(gather_rows(in[0], idx));
  };
  expect_identical(run_path(24, {{3, 5}}, fused), run_path(24, {{3, 5}}, unfused));
}

TEST(FusedOps, MaskedLogprobSumMatchesUnfused) {
  const std::vector<std::vector<int>> masks{
      {1, 0, 1, 1, 0, 0}, {0, 0, 1, 0, 1, 1}, {1, 1, 1, 1, 1, 1}};
  const std::vector<double> coeffs{0.7, -1.3, 0.05};
  const auto fused = [&](const std::vector<Tensor>& in) {
    return masked_logprob_sum(in[0], masks, coeffs, 0.25);
  };
  const auto unfused = [&](const std::vector<Tensor>& in) {
    Tensor loss = Tensor::scalar(0.0);
    for (std::size_t j = 0; j < masks.size(); ++j) {
      loss = add(loss, scale(sum(bernoulli_log_prob(in[0], masks[j])), coeffs[j]));
    }
    return scale(loss, 0.25);
  };
  expect_identical(run_path(25, {{6}}, fused), run_path(25, {{6}}, unfused));
}

TEST(FusedOps, MaskedLogprobSumEmptyBatch) {
  // No episodes (all advantages filtered): the loss is exactly zero and
  // backward is a no-op on the logits.
  std::vector<Tensor> in = rand_inputs({{4}}, 26);
  Tensor loss = masked_logprob_sum(in[0], {}, {}, 0.5);
  EXPECT_EQ(loss.item(), 0.0);
  loss.backward();
  for (const double g : in[0].grad()) EXPECT_EQ(g, 0.0);
}

// ---- finite-difference gradient checks on the fused paths ------------------

TEST(FusedGradCheck, LinearTanh) {
  Rng rng(30);
  const Tensor w = Tensor::randn({3, 2}, rng, 1.0, false);
  gradcheck(rand_inputs({{3, 4}, {4, 2}, {2}}, 31), [w](const auto& in) {
    return sum(mul(linear_tanh(in[0], in[1], in[2]), w));
  });
}

TEST(FusedGradCheck, LinearTanhNoBias) {
  gradcheck(rand_inputs({{2, 3}, {3, 3}}, 32), [](const auto& in) {
    const Tensor y = linear_tanh(in[0], in[1], Tensor{});
    return sum(mul(y, y));
  });
}

TEST(FusedGradCheck, GatherAddTanh) {
  gradcheck(rand_inputs({{4, 3}, {6, 3}}, 33), [](const auto& in) {
    const std::vector<std::size_t> idx{0, 1, 2, 3, 0, 2};
    const Tensor g = gather_add_tanh(in[0], idx, in[1]);
    return sum(mul(g, g));
  });
}

TEST(FusedGradCheck, GatherAddTanhRepeatedIndices) {
  gradcheck(rand_inputs({{3, 2}, {5, 2}}, 34), [](const auto& in) {
    const std::vector<std::size_t> idx{1, 1, 1, 0, 2};
    return sum(gather_add_tanh(in[0], idx, in[1]));
  });
}

TEST(FusedGradCheck, MaskedLogprobSum) {
  gradcheck(rand_inputs({{6}}, 35), [](const auto& in) {
    return masked_logprob_sum(
        in[0], {{1, 0, 1, 1, 0, 0}, {0, 0, 1, 0, 1, 1}}, {0.7, -1.3}, 0.25);
  });
}

TEST(FusedOps, RejectsMalformedMasks) {
  const Tensor logits = Tensor::from({0.1, -0.2, 0.3}, {3}, true);
  EXPECT_THROW(masked_logprob_sum(logits, {{1, 0}}, {1.0}), Error);
  EXPECT_THROW(masked_logprob_sum(logits, {{1, 0, 2}}, {1.0}), Error);
  EXPECT_THROW(masked_logprob_sum(logits, {{1, 0, 1}}, {1.0, 2.0}), Error);
}

}  // namespace
}  // namespace sc::nn
