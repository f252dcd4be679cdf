// Row-panel fan-out must not change a single bit: linear_tanh and
// gather_add_tanh values and input/weight/bias gradients from a call that
// fans its row panels out over the global pool equal those of the same call
// inside ThreadPool::InlineScope, where every panel runs on one thread.
//
// This binary sizes the global pool to four workers before anything uses
// it, so the fan-out path runs even on a one- or two-core machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/ops.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"

namespace sc::nn {
namespace {

const bool g_pool_configured = ThreadPool::configure_global(4);

constexpr std::size_t kRows[] = {1, 127, 128, 129, 440, 1000};
constexpr std::size_t kWidths[] = {1, 24, 32};
constexpr std::size_t kInner = 24;     // linear_tanh input width
constexpr std::size_t kBaseRows = 97;  // gather_add_tanh base rows

/// The SIMD tier a case runs under; restores the previous tier.
struct TierMode {
  explicit TierMode(simd::Tier tier) : prev(simd::set_tier(tier)) {}
  ~TierMode() { simd::set_tier(prev); }
  simd::Tier prev;
};

struct RunResult {
  std::vector<double> out;
  std::vector<std::vector<double>> grads;
};

using Shapes = std::vector<std::vector<std::size_t>>;
using Build = std::function<Tensor(const std::vector<Tensor>&)>;

/// Runs `build` on fresh inputs from `seed`, backpropagates
/// sum(mul(out, fixed_weights)) and captures the values and every input
/// gradient; with `serial`, the whole run sits inside an InlineScope.
RunResult run(bool serial, std::uint64_t seed, const Shapes& shapes, const Build& build) {
  std::optional<ThreadPool::InlineScope> scope;
  if (serial) scope.emplace();
  Rng rng(seed);
  std::vector<Tensor> in;
  for (const auto& s : shapes) in.push_back(Tensor::randn(s, rng, 0.8, true));
  Tensor y = build(in);
  Rng wrng(seed + 7919);
  const Tensor w = Tensor::randn(y.shape(), wrng, 1.0, false);
  sum(mul(y, w)).backward();
  RunResult r;
  r.out = y.value();
  for (const Tensor& t : in) r.grads.push_back(t.grad());
  return r;
}

/// Number of elements whose bits differ (vectors of unequal size count all).
std::size_t mismatches(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return a.size() + b.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) bad += a[i] != b[i] ? 1 : 0;
  return bad;
}

void expect_fanout_identical(const Shapes& shapes, const Build& build) {
  for (const simd::Tier tier : {simd::active(), simd::Tier::Scalar}) {
    SCOPED_TRACE(::testing::Message() << "tier=" << simd::tier_name(tier));
    const TierMode mode(tier);
    const RunResult fanned = run(false, 31, shapes, build);
    const RunResult serial = run(true, 31, shapes, build);
    EXPECT_EQ(mismatches(fanned.out, serial.out), 0u) << "forward values";
    ASSERT_EQ(fanned.grads.size(), serial.grads.size());
    for (std::size_t t = 0; t < fanned.grads.size(); ++t) {
      EXPECT_EQ(mismatches(fanned.grads[t], serial.grads[t]), 0u) << "gradient of input " << t;
    }
  }
}

class PanelFanout : public ::testing::Test {
protected:
  void SetUp() override {
    ASSERT_TRUE(g_pool_configured) << "the global pool was built before configure_global(4)";
    ASSERT_GT(ThreadPool::global().size(), 1u) << "one pool worker cannot exercise fan-out";
  }
};

TEST_F(PanelFanout, LinearTanhBitIdentical) {
  for (const std::size_t n : kRows) {
    for (const std::size_t m : kWidths) {
      SCOPED_TRACE(::testing::Message() << "rows=" << n << " width=" << m);
      expect_fanout_identical({{n, kInner}, {kInner, m}, {m}}, [](const auto& in) {
        return linear_tanh(in[0], in[1], in[2]);
      });
      expect_fanout_identical({{n, kInner}, {kInner, m}}, [](const auto& in) {
        return linear_tanh(in[0], in[1], Tensor());
      });
    }
  }
}

TEST_F(PanelFanout, GatherAddTanhBitIdentical) {
  for (const std::size_t n : kRows) {
    // Repeated indices make the base gradient accumulate from several rows.
    std::vector<std::size_t> index(n);
    for (std::size_t i = 0; i < n; ++i) index[i] = (i * 37 + 5) % kBaseRows;
    for (const std::size_t m : kWidths) {
      SCOPED_TRACE(::testing::Message() << "rows=" << n << " width=" << m);
      expect_fanout_identical({{kBaseRows, m}, {n, m}}, [&index](const auto& in) {
        return gather_add_tanh(in[0], index, in[1]);
      });
      expect_fanout_identical({{kBaseRows, m}}, [&index](const auto& in) {
        return gather_add_tanh(in[0], index, Tensor());
      });
    }
  }
}

}  // namespace
}  // namespace sc::nn
