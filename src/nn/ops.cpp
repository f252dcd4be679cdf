#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "nn/arena.hpp"
#include "nn/simd.hpp"

namespace sc::nn {

namespace {

using detail::TensorData;

/// Creates the result tensor and wires autograd bookkeeping.
/// `backward` receives (result_data) and must add into input grads.
Tensor make_op(std::vector<std::size_t> shape,
               std::vector<Tensor> inputs,
               std::function<void(TensorData&)> backward) {
  auto d = detail::alloc_tensor_data();
  d->shape = std::move(shape);
  d->value.assign(shape_size(d->shape), 0.0);

  bool needs = false;
  if (detail::grad_enabled()) {
    for (const Tensor& t : inputs) {
      if (t.requires_grad()) {
        needs = true;
        break;
      }
    }
  }
  if (needs) {
    d->requires_grad = true;
    for (const Tensor& t : inputs) d->inputs.push_back(t.ptr());
    TensorData* raw = d.get();
    d->backward_fn = [raw, backward = std::move(backward)] { backward(*raw); };
  }
  return Tensor::wrap(std::move(d));
}

double softplus(double x) {
  // log(1 + e^x), stable for both signs.
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

void check_same_shape(Tensor a, Tensor b, const char* op) {
  SC_CHECK(a.shape() == b.shape(), op << ": shape mismatch");
}

/// Unary elementwise helper: out = f(a), da += df(a_val, out_val) * dout.
Tensor unary(Tensor a, double (*f)(double),
             double (*df)(double /*x*/, double /*y*/)) {
  Tensor out = make_op(a.shape(), {a}, [a, df](TensorData& r) mutable {
    if (!a.requires_grad()) return;
    auto& ga = a.grad();
    const auto& va = a.value();
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ga[i] += df(va[i], r.value[i]) * r.grad[i];
    }
  });
  auto& v = out.value();
  const auto& va = a.value();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = f(va[i]);
  return out;
}

// Fan row panels out over the global pool once an op has at least this much
// work, in multiply-add units; below it the submit/wake overhead dominates.
constexpr std::size_t kParallelFlops = std::size_t{1} << 18;
// Rows per panel: a multiple of the 4-row register micro-tile so the panel
// split never changes which rows share a micro-tile.
constexpr std::size_t kPanelRows = 64;
// One std::tanh costs about as much as 200 multiply-adds of the AVX-512 GEMM
// (about 21 ns against 0.1 ns), so the tanh epilogues count at that rate.
constexpr std::size_t kTanhFlops = 200;

/// Runs fn(lo, hi) over [0, rows): as fixed kPanelRows panels on the global
/// pool when there are at least two panels and `work` (multiply-adds) pays
/// for the fan-out, else once over all rows on this thread. Every caller
/// computes each output row from its inputs alone, in the same order for any
/// split, so the result is bit-identical either way. Pool workers and
/// InlineScope threads (sc_serve's request workers) never fan out, and check
/// that before touching ThreadPool::global(), so they never build the pool.
template <typename Fn>
void for_row_panels(std::size_t rows, std::size_t work, const Fn& fn) {
  if (rows < 2 * kPanelRows || work < kParallelFlops || ThreadPool::in_worker() ||
      ThreadPool::global().size() <= 1) {
    fn(std::size_t{0}, rows);
    return;
  }
  const std::size_t panels = (rows + kPanelRows - 1) / kPanelRows;
  ThreadPool::global().parallel_for(panels, [&fn, rows](std::size_t pi) {
    const std::size_t lo = pi * kPanelRows;
    fn(lo, std::min(rows, lo + kPanelRows));
  });
}

}  // namespace

namespace kernels {

namespace {

/// Per-thread scratch for gemm_nt's packed B tile (pool workers each get
/// their own, so panel fan-out stays race-free).
double* nt_scratch(std::size_t m) {
  thread_local std::vector<double> buf;
  const std::size_t need = simd::gemm_nt_scratch_doubles(m);
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

// The row-panel kernels themselves (4-row register blocking, ascending-p
// accumulation, zero-skip) live in nn/simd.hpp: the AVX2/AVX-512/NEON tiers
// replicate the scalar reference tier's per-element operation sequence exactly (see simd.hpp for the
// determinism contract). gemm_nn/nt keep every output element accumulated in
// a fixed order by one thread, so results are bit-identical for any panel
// split; gemm_tn folds four input rows per pass (a reassociation within the
// 1e-12 kernel tolerance) with i-blocking that depends only on n, so results
// stay thread-count invariant.

}  // namespace

void gemm_nn(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
             std::size_t m, bool accumulate) {
  if (!accumulate) std::fill(c, c + n * m, 0.0);
  const simd::Tier tier = simd::active();
  for_row_panels(n, n * k * m, [=](std::size_t lo, std::size_t hi) {
    simd::gemm_nn_rows(tier, a, b, c, lo, hi, k, m);
  });
}

void gemm_nt(const double* a, const double* b, double* c, std::size_t n, std::size_t m,
             std::size_t k) {
  const simd::Tier tier = simd::active();
  for_row_panels(n, n * k * m, [=](std::size_t lo, std::size_t hi) {
    simd::gemm_nt_rows(tier, a, b, c, nt_scratch(m), lo, hi, m, k);
  });
}

void gemm_tn(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
             std::size_t m) {
  const simd::Tier tier = simd::active();
  // Panels over the k output rows of C (k, m).
  for_row_panels(k, n * k * m, [=](std::size_t lo, std::size_t hi) {
    simd::gemm_tn_cols(tier, a, b, c, lo, hi, n, k, m);
  });
}

}  // namespace kernels

Tensor add(Tensor a, Tensor b) {
  const bool bias_row = a.dim() == 2 && b.dim() == 1 && b.size() == a.cols();
  if (!bias_row) check_same_shape(a, b, "add");

  Tensor out = make_op(a.shape(), {a, b}, [a, b, bias_row](TensorData& r) mutable {
    const simd::Tier tier = simd::active();
    if (a.requires_grad()) {
      auto& ga = a.grad();
      simd::accumulate(tier, ga.data(), r.grad.data(), ga.size());
    }
    if (b.requires_grad()) {
      auto& gb = b.grad();
      if (bias_row) {
        // Row-by-row in ascending order: each gb[j] sees the same update
        // sequence as the scalar `gb[i % m] += grad[i]` loop.
        const std::size_t m = gb.size();
        for (std::size_t row = 0; row * m < r.grad.size(); ++row) {
          simd::accumulate(tier, gb.data(), r.grad.data() + row * m, m);
        }
      } else {
        simd::accumulate(tier, gb.data(), r.grad.data(), gb.size());
      }
    }
  });
  auto& v = out.value();
  const auto& va = a.value();
  const auto& vb = b.value();
  const simd::Tier tier = simd::active();
  if (bias_row) {
    const std::size_t m = vb.size();
    for (std::size_t row = 0; row * m < v.size(); ++row) {
      simd::add(tier, va.data() + row * m, vb.data(), v.data() + row * m, m);
    }
  } else {
    simd::add(tier, va.data(), vb.data(), v.data(), v.size());
  }
  return out;
}

Tensor sub(Tensor a, Tensor b) {
  check_same_shape(a, b, "sub");
  Tensor out = make_op(a.shape(), {a, b}, [a, b](TensorData& r) mutable {
    const simd::Tier tier = simd::active();
    if (a.requires_grad()) {
      auto& ga = a.grad();
      simd::accumulate(tier, ga.data(), r.grad.data(), ga.size());
    }
    if (b.requires_grad()) {
      auto& gb = b.grad();
      simd::accumulate_neg(tier, gb.data(), r.grad.data(), gb.size());
    }
  });
  auto& v = out.value();
  simd::sub(simd::active(), a.value().data(), b.value().data(), v.data(),
            v.size());
  return out;
}

Tensor mul(Tensor a, Tensor b) {
  check_same_shape(a, b, "mul");
  Tensor out = make_op(a.shape(), {a, b}, [a, b](TensorData& r) mutable {
    const simd::Tier tier = simd::active();
    if (a.requires_grad()) {
      auto& ga = a.grad();
      simd::accumulate_mul(tier, ga.data(), b.value().data(), r.grad.data(), ga.size());
    }
    if (b.requires_grad()) {
      auto& gb = b.grad();
      simd::accumulate_mul(tier, gb.data(), a.value().data(), r.grad.data(), gb.size());
    }
  });
  auto& v = out.value();
  simd::mul(simd::active(), a.value().data(), b.value().data(), v.data(),
            v.size());
  return out;
}

Tensor scale(Tensor a, double s) {
  Tensor out = make_op(a.shape(), {a}, [a, s](TensorData& r) mutable {
    if (!a.requires_grad()) return;
    auto& ga = a.grad();
    simd::accumulate_scaled(simd::active(), ga.data(), r.grad.data(), s,
                            ga.size());
  });
  auto& v = out.value();
  simd::scale(simd::active(), a.value().data(), s, v.data(), v.size());
  return out;
}

Tensor add_scalar(Tensor a, double s) {
  Tensor out = make_op(a.shape(), {a}, [a](TensorData& r) mutable {
    if (!a.requires_grad()) return;
    auto& ga = a.grad();
    simd::accumulate(simd::active(), ga.data(), r.grad.data(), ga.size());
  });
  auto& v = out.value();
  simd::add_scalar(simd::active(), a.value().data(), s, v.data(), v.size());
  return out;
}

Tensor tanh_op(Tensor a) {
  return unary(
      a, +[](double x) { return std::tanh(x); },
      +[](double, double y) { return 1.0 - y * y; });
}

Tensor sigmoid(Tensor a) {
  return unary(
      a, +[](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      +[](double, double y) { return y * (1.0 - y); });
}

Tensor relu(Tensor a) {
  return unary(
      a, +[](double x) { return x > 0.0 ? x : 0.0; },
      +[](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Tensor exp_op(Tensor a) {
  return unary(
      a, +[](double x) { return std::exp(x); },
      +[](double, double y) { return y; });
}

Tensor log_op(Tensor a) {
  for (const double x : a.value()) {
    SC_CHECK(x > 0.0, "log of a non-positive value " << x);
  }
  return unary(
      a, +[](double x) { return std::log(x); },
      +[](double x, double) { return 1.0 / x; });
}

Tensor matmul(Tensor a, Tensor b) {
  SC_CHECK(a.dim() == 2 && b.dim() == 2, "matmul requires 2-D tensors");
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  SC_CHECK(b.rows() == k,
           "matmul: inner dims differ (" << k << " vs " << b.rows() << ")");

  Tensor out = make_op({n, m}, {a, b}, [a, b, n, k, m](TensorData& r) mutable {
    if (a.requires_grad()) {
      kernels::gemm_nt(r.grad.data(), b.value().data(), a.grad().data(), n, m, k);
    }
    if (b.requires_grad()) {
      kernels::gemm_tn(a.value().data(), r.grad.data(), b.grad().data(), n, k, m);
    }
  });
  kernels::gemm_nn(a.value().data(), b.value().data(), out.value().data(), n, k, m,
                   false);
  return out;
}

Tensor matmul_nt(Tensor a, Tensor b) {
  SC_CHECK(a.dim() == 2 && b.dim() == 2, "matmul_nt requires 2-D tensors");
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  SC_CHECK(b.cols() == k,
           "matmul_nt: inner dims differ (" << k << " vs " << b.cols() << ")");

  Tensor out = make_op({n, m}, {a, b}, [a, b, n, k, m](TensorData& r) mutable {
    if (a.requires_grad()) {
      // dA (n,k) += dC (n,m) * B (m,k)
      kernels::gemm_nn(r.grad.data(), b.value().data(), a.grad().data(), n, m, k,
                       /*accumulate=*/true);
    }
    if (b.requires_grad()) {
      // dB (m,k) += dC^T (m,n) * A (n,k)
      kernels::gemm_tn(r.grad.data(), a.value().data(), b.grad().data(), n, m, k);
    }
  });
  // C = A * B^T
  kernels::gemm_nt(a.value().data(), b.value().data(), out.value().data(), n, k, m);
  return out;
}

Tensor concat_cols(std::vector<Tensor> parts) {
  SC_CHECK(!parts.empty(), "concat_cols of zero tensors");
  const std::size_t n = parts[0].rows();
  std::size_t total_cols = 0;
  for (const Tensor& t : parts) {
    SC_CHECK(t.dim() == 2, "concat_cols requires 2-D tensors");
    SC_CHECK(t.rows() == n, "concat_cols: row count mismatch");
    total_cols += t.cols();
  }

  Tensor out = make_op({n, total_cols}, parts, [parts, n, total_cols](TensorData& r) mutable {
    const simd::Tier tier = simd::active();
    std::size_t col0 = 0;
    for (Tensor& t : parts) {
      const std::size_t c = t.cols();
      if (t.requires_grad()) {
        auto& g = t.grad();
        for (std::size_t i = 0; i < n; ++i) {
          simd::accumulate(tier, g.data() + i * c, r.grad.data() + i * total_cols + col0,
                           c);
        }
      }
      col0 += c;
    }
  });
  auto& v = out.value();
  std::size_t col0 = 0;
  for (const Tensor& t : parts) {
    const std::size_t c = t.cols();
    const auto& tv = t.value();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < c; ++j) v[i * total_cols + col0 + j] = tv[i * c + j];
    }
    col0 += c;
  }
  return out;
}

Tensor gather_rows(Tensor x, const std::vector<std::size_t>& index) {
  SC_CHECK(x.dim() == 2, "gather_rows requires a 2-D tensor");
  const std::size_t m = x.cols();
  for (const std::size_t i : index) {
    SC_CHECK(i < x.rows(), "gather_rows: index " << i << " out of range");
  }

  Tensor out = make_op({index.size(), m}, {x}, [x, index, m](TensorData& r) mutable {
    if (!x.requires_grad()) return;
    auto& g = x.grad();
    const simd::Tier tier = simd::active();
    for (std::size_t i = 0; i < index.size(); ++i) {
      simd::accumulate(tier, g.data() + index[i] * m, r.grad.data() + i * m, m);
    }
  });
  auto& v = out.value();
  const auto& xv = x.value();
  for (std::size_t i = 0; i < index.size(); ++i) {
    std::copy_n(xv.data() + index[i] * m, m, v.data() + i * m);
  }
  return out;
}

Tensor scatter_mean(Tensor x, const std::vector<std::size_t>& index,
                    std::size_t num_targets) {
  SC_CHECK(x.dim() == 2, "scatter_mean requires a 2-D tensor");
  SC_CHECK(index.size() == x.rows(), "scatter_mean: one index per row required");
  const std::size_t m = x.cols();

  std::vector<double> counts(num_targets, 0.0);
  for (const std::size_t t : index) {
    SC_CHECK(t < num_targets, "scatter_mean: target " << t << " out of range");
    counts[t] += 1.0;
  }

  Tensor out =
      make_op({num_targets, m}, {x}, [x, index, counts, m](TensorData& r) mutable {
        if (!x.requires_grad()) return;
        auto& g = x.grad();
        const simd::Tier tier = simd::active();
        for (std::size_t i = 0; i < index.size(); ++i) {
          const std::size_t t = index[i];
          simd::accumulate_scaled(tier, g.data() + i * m, r.grad.data() + t * m,
                                  1.0 / counts[t], m);
        }
      });
  auto& v = out.value();
  const auto& xv = x.value();
  const simd::Tier tier = simd::active();
  for (std::size_t i = 0; i < index.size(); ++i) {
    simd::accumulate(tier, v.data() + index[i] * m, xv.data() + i * m, m);
  }
  for (std::size_t t = 0; t < num_targets; ++t) {
    if (counts[t] > 0.0) {
      const double inv = 1.0 / counts[t];
      simd::scale(tier, v.data() + t * m, inv, v.data() + t * m, m);
    }
  }
  return out;
}

Tensor reshape(Tensor x, std::vector<std::size_t> shape) {
  SC_CHECK(shape_size(shape) == x.size(), "reshape must preserve element count");
  Tensor out = make_op(std::move(shape), {x}, [x](TensorData& r) mutable {
    if (!x.requires_grad()) return;
    auto& g = x.grad();
    simd::accumulate(simd::active(), g.data(), r.grad.data(), g.size());
  });
  out.value() = x.value();
  return out;
}

Tensor sum(Tensor a) {
  Tensor out = make_op({1}, {a}, [a](TensorData& r) mutable {
    if (!a.requires_grad()) return;
    auto& g = a.grad();
    for (double& gi : g) gi += r.grad[0];
  });
  double acc = 0.0;
  for (const double x : a.value()) acc += x;
  out.value()[0] = acc;
  return out;
}

Tensor mean(Tensor a) {
  const double inv = 1.0 / static_cast<double>(a.size());
  Tensor out = make_op({1}, {a}, [a, inv](TensorData& r) mutable {
    if (!a.requires_grad()) return;
    auto& g = a.grad();
    for (double& gi : g) gi += inv * r.grad[0];
  });
  double acc = 0.0;
  for (const double x : a.value()) acc += x;
  out.value()[0] = acc * inv;
  return out;
}

Tensor bernoulli_log_prob(Tensor logits, const std::vector<int>& actions) {
  SC_CHECK(logits.size() == actions.size(),
           "bernoulli_log_prob: one action per logit required");
  for (const int a : actions) {
    SC_CHECK(a == 0 || a == 1, "bernoulli actions must be 0/1, got " << a);
  }

  Tensor out = make_op({logits.size()}, {logits}, [logits, actions](TensorData& r) mutable {
    if (!logits.requires_grad()) return;
    auto& g = logits.grad();
    const auto& z = logits.value();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double p = 1.0 / (1.0 + std::exp(-z[i]));
      // d logp / dz = action - p
      g[i] += (static_cast<double>(actions[i]) - p) * r.grad[i];
    }
  });
  auto& v = out.value();
  const auto& z = logits.value();
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = actions[i] == 1 ? -softplus(-z[i]) : -softplus(z[i]);
  }
  return out;
}

Tensor bernoulli_entropy(Tensor logits) {
  Tensor out = make_op(logits.shape(), {logits}, [logits](TensorData& r) mutable {
    if (!logits.requires_grad()) return;
    auto& g = logits.grad();
    const auto& z = logits.value();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double p = 1.0 / (1.0 + std::exp(-z[i]));
      g[i] += -z[i] * p * (1.0 - p) * r.grad[i];
    }
  });
  auto& v = out.value();
  const auto& z = logits.value();
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double p = 1.0 / (1.0 + std::exp(-z[i]));
    v[i] = p * softplus(-z[i]) + (1.0 - p) * softplus(z[i]);
  }
  return out;
}

Tensor categorical_log_prob(Tensor logits, const std::vector<int>& actions) {
  SC_CHECK(logits.dim() == 2, "categorical_log_prob requires 2-D logits");
  const std::size_t n = logits.rows(), k = logits.cols();
  SC_CHECK(actions.size() == n, "categorical_log_prob: one action per row required");
  for (const int a : actions) {
    SC_CHECK(a >= 0 && static_cast<std::size_t>(a) < k,
             "categorical action " << a << " out of range");
  }

  // Cache row-wise softmax for the backward pass.
  auto probs = std::make_shared<std::vector<double>>(n * k);
  {
    const auto& z = logits.value();
    for (std::size_t i = 0; i < n; ++i) {
      double mx = z[i * k];
      for (std::size_t j = 1; j < k; ++j) mx = std::max(mx, z[i * k + j]);
      double denom = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        (*probs)[i * k + j] = std::exp(z[i * k + j] - mx);
        denom += (*probs)[i * k + j];
      }
      for (std::size_t j = 0; j < k; ++j) (*probs)[i * k + j] /= denom;
    }
  }

  Tensor out =
      make_op({n}, {logits}, [logits, actions, probs, n, k](TensorData& r) mutable {
        if (!logits.requires_grad()) return;
        auto& g = logits.grad();
        for (std::size_t i = 0; i < n; ++i) {
          const double go = r.grad[i];
          for (std::size_t j = 0; j < k; ++j) {
            const double onehot = (static_cast<std::size_t>(actions[i]) == j) ? 1.0 : 0.0;
            g[i * k + j] += (onehot - (*probs)[i * k + j]) * go;
          }
        }
      });
  auto& v = out.value();
  for (std::size_t i = 0; i < n; ++i) {
    const double p = (*probs)[i * k + static_cast<std::size_t>(actions[i])];
    v[i] = std::log(std::max(p, 1e-300));
  }
  return out;
}

Tensor softmax_rows(Tensor logits) {
  SC_CHECK(logits.dim() == 2, "softmax_rows requires a 2-D tensor");
  const std::size_t n = logits.rows(), k = logits.cols();

  Tensor out = make_op({n, k}, {logits}, [logits, n, k](TensorData& r) mutable {
    if (!logits.requires_grad()) return;
    auto& g = logits.grad();
    for (std::size_t i = 0; i < n; ++i) {
      // dz_j = y_j * (dout_j - Σ_l dout_l y_l)
      double dot = 0.0;
      for (std::size_t j = 0; j < k; ++j) dot += r.grad[i * k + j] * r.value[i * k + j];
      for (std::size_t j = 0; j < k; ++j) {
        g[i * k + j] += r.value[i * k + j] * (r.grad[i * k + j] - dot);
      }
    }
  });
  auto& v = out.value();
  const auto& z = logits.value();
  for (std::size_t i = 0; i < n; ++i) {
    double mx = z[i * k];
    for (std::size_t j = 1; j < k; ++j) mx = std::max(mx, z[i * k + j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      v[i * k + j] = std::exp(z[i * k + j] - mx);
      denom += v[i * k + j];
    }
    for (std::size_t j = 0; j < k; ++j) v[i * k + j] /= denom;
  }
  return out;
}

// ---- Fused ops --------------------------------------------------------------

Tensor linear_tanh(Tensor x, Tensor w, Tensor b) {
  SC_CHECK(x.dim() == 2 && w.dim() == 2, "linear_tanh requires 2-D x and w");
  const std::size_t n = x.rows(), k = x.cols(), m = w.cols();
  SC_CHECK(w.rows() == k,
           "linear_tanh: inner dims differ (" << k << " vs " << w.rows() << ")");
  if (b.defined()) {
    SC_CHECK(b.dim() == 1 && b.size() == m, "linear_tanh: bias must be a (cols) row");
  }

  std::vector<Tensor> inputs{x, w};
  if (b.defined()) inputs.push_back(b);
  Tensor out = make_op({n, m}, std::move(inputs), [x, w, b, n, k, m](TensorData& r) mutable {
    // dz = (1 - y^2) * dy — exactly the tanh backward; the GEMMs below then
    // match matmul's backward on the same dz buffer, and the bias loop
    // matches add's row-broadcast backward, so gradients are bit-identical
    // to the unfused composition.
    std::vector<double> dz(n * m);
    for (std::size_t i = 0; i < dz.size(); ++i) {
      dz[i] = (1.0 - r.value[i] * r.value[i]) * r.grad[i];
    }
    if (x.requires_grad()) {
      kernels::gemm_nt(dz.data(), w.value().data(), x.grad().data(), n, m, k);
    }
    if (w.requires_grad()) {
      kernels::gemm_tn(x.value().data(), dz.data(), w.grad().data(), n, k, m);
    }
    if (b.defined() && b.requires_grad()) {
      // Same ascending-row update sequence per gb[j] as the scalar
      // `gb[i % m] += dz[i]` loop (matches add's row-broadcast backward).
      auto& gb = b.grad();
      const simd::Tier tier = simd::active();
      for (std::size_t row = 0; row < n; ++row) {
        simd::accumulate(tier, gb.data(), dz.data() + row * m, m);
      }
    }
  });
  // One fan-out for GEMM and epilogue: each panel computes its rows exactly as
  // kernels::gemm_nn would (the same row kernel at the same SIMD tier), then
  // applies bias+tanh to them. The tanh calls outweigh the GEMM.
  double* v = out.value().data();
  const double* xv = x.value().data();
  const double* wv = w.value().data();
  const double* bv = b.defined() ? b.value().data() : nullptr;
  const simd::Tier tier = simd::active();
  for_row_panels(n, n * m * (k + kTanhFlops), [=](std::size_t lo, std::size_t hi) {
    std::fill(v + lo * m, v + hi * m, 0.0);
    simd::gemm_nn_rows(tier, xv, wv, v, lo, hi, k, m);
    for (std::size_t i = lo; i < hi; ++i) {
      double* row = v + i * m;
      if (bv != nullptr) {
        for (std::size_t j = 0; j < m; ++j) row[j] = std::tanh(row[j] + bv[j]);
      } else {
        for (std::size_t j = 0; j < m; ++j) row[j] = std::tanh(row[j]);
      }
    }
  });
  return out;
}

Tensor gather_add_tanh(Tensor base, const std::vector<std::size_t>& index,
                       Tensor add_term) {
  SC_CHECK(base.dim() == 2, "gather_add_tanh requires a 2-D base");
  const std::size_t m = base.cols();
  for (const std::size_t i : index) {
    SC_CHECK(i < base.rows(), "gather_add_tanh: index " << i << " out of range");
  }
  if (add_term.defined()) {
    SC_CHECK(add_term.dim() == 2 && add_term.rows() == index.size() &&
                 add_term.cols() == m,
             "gather_add_tanh: add_term must be (index.size(), base.cols())");
  }

  std::vector<Tensor> inputs{base};
  if (add_term.defined()) inputs.push_back(add_term);
  Tensor out =
      make_op({index.size(), m}, std::move(inputs),
              [base, index, add_term, m](TensorData& r) mutable {
                std::vector<double> dz(r.value.size());
                for (std::size_t i = 0; i < dz.size(); ++i) {
                  dz[i] = (1.0 - r.value[i] * r.value[i]) * r.grad[i];
                }
                const simd::Tier tier = simd::active();
                if (base.requires_grad()) {
                  auto& g = base.grad();
                  for (std::size_t i = 0; i < index.size(); ++i) {
                    simd::accumulate(tier, g.data() + index[i] * m,
                                     dz.data() + i * m, m);
                  }
                }
                if (add_term.defined() && add_term.requires_grad()) {
                  auto& g = add_term.grad();
                  simd::accumulate(tier, g.data(), dz.data(), g.size());
                }
              });
  double* v = out.value().data();
  const double* bv = base.value().data();
  const double* av = add_term.defined() ? add_term.value().data() : nullptr;
  const std::size_t* idx = index.data();
  for_row_panels(index.size(), index.size() * m * kTanhFlops,
                 [=](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     const double* src = bv + idx[i] * m;
                     double* row = v + i * m;
                     if (av != nullptr) {
                       const double* add = av + i * m;
                       for (std::size_t j = 0; j < m; ++j) row[j] = std::tanh(src[j] + add[j]);
                     } else {
                       for (std::size_t j = 0; j < m; ++j) row[j] = std::tanh(src[j]);
                     }
                   }
                 });
  return out;
}

Tensor masked_logprob_sum(Tensor logits, std::vector<std::vector<int>> masks,
                          std::vector<double> coeffs, double final_scale) {
  SC_CHECK(masks.size() == coeffs.size(),
           "masked_logprob_sum: one coefficient per mask required");
  for (const auto& mask : masks) {
    SC_CHECK(mask.size() == logits.size(),
             "masked_logprob_sum: mask size does not match logits");
    for (const int a : mask) {
      SC_CHECK(a == 0 || a == 1, "masked_logprob_sum actions must be 0/1, got " << a);
    }
  }
  auto ms = std::make_shared<std::vector<std::vector<int>>>(std::move(masks));
  auto cs = std::make_shared<std::vector<double>>(std::move(coeffs));
  Tensor out =
      make_op({1}, {logits}, [logits, ms, cs, final_scale](TensorData& r) mutable {
        if (!logits.requires_grad()) return;
        auto& g = logits.grad();
        const auto& z = logits.value();
        const double dsum = final_scale * r.grad[0];
        // One sigmoid per element, shared by every mask.
        std::vector<double> p(z.size());
        for (std::size_t i = 0; i < p.size(); ++i) p[i] = 1.0 / (1.0 + std::exp(-z[i]));
        // Episodes in reverse order, elements ascending: the exact
        // accumulation order of the unfused add(loss, scale(...)) chain's
        // reverse-topological backward, so logits.grad is bit-identical.
        for (std::size_t j = ms->size(); j-- > 0;) {
          const double dsj = (*cs)[j] * dsum;
          const auto& mask = (*ms)[j];
          for (std::size_t i = 0; i < g.size(); ++i) {
            g[i] += (static_cast<double>(mask[i]) - p[i]) * dsj;
          }
        }
      });
  const auto& z = logits.value();
  // log p(action | z[i]) for both actions once per element; each per-mask sum
  // adds them in ascending element order, as the unfused chain does.
  std::vector<double> logp1(z.size()), logp0(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    logp1[i] = -softplus(-z[i]);
    logp0[i] = -softplus(z[i]);
  }
  double acc = 0.0;
  for (std::size_t j = 0; j < ms->size(); ++j) {
    const auto& mask = (*ms)[j];
    double s = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) s += mask[i] == 1 ? logp1[i] : logp0[i];
    acc += (*cs)[j] * s;
  }
  out.value()[0] = acc * final_scale;
  return out;
}

}  // namespace sc::nn
