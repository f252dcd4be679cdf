// Differentiable operations over nn::Tensor.
//
// Shapes: 1-D tensors are treated as row vectors where sensible; matmul
// requires 2-D operands. All ops validate shapes and record backward
// closures while gradients are enabled.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace sc::nn {

// ---- Elementwise ------------------------------------------------------------
Tensor add(Tensor a, Tensor b);        ///< same shape, or b is a bias row
Tensor sub(Tensor a, Tensor b);        ///< same shape
Tensor mul(Tensor a, Tensor b);        ///< elementwise, same shape
Tensor scale(Tensor a, double s);
Tensor add_scalar(Tensor a, double s);
Tensor tanh_op(Tensor a);
Tensor sigmoid(Tensor a);
Tensor relu(Tensor a);
Tensor exp_op(Tensor a);
Tensor log_op(Tensor a);                      ///< requires strictly positive input

// ---- Linear algebra ---------------------------------------------------------
Tensor matmul(Tensor a, Tensor b);     ///< (n,k) x (k,m) -> (n,m)
Tensor matmul_nt(Tensor a, Tensor b);  ///< (n,k) x (m,k)^T -> (n,m)

// ---- Shape / gather ---------------------------------------------------------
/// Concatenates 2-D tensors along columns (same row count).
Tensor concat_cols(std::vector<Tensor> parts);
/// Selects rows of a 2-D tensor: result row i = x[index[i]].
Tensor gather_rows(Tensor x, const std::vector<std::size_t>& index);
/// Scatter-mean of rows into `num_targets` buckets: out[t] = mean of rows i
/// with index[i] == t (zero row if a bucket is empty).
Tensor scatter_mean(Tensor x, const std::vector<std::size_t>& index,
                    std::size_t num_targets);
/// Reshape without copying semantics changes (same element count).
Tensor reshape(Tensor x, std::vector<std::size_t> shape);

// ---- Reductions -------------------------------------------------------------
Tensor sum(Tensor a);   ///< scalar
Tensor mean(Tensor a);  ///< scalar

// ---- Fused probability ops (numerically stable) ------------------------------
/// Per-element Bernoulli log-likelihood of `actions` (0/1) under logits z:
///   logp = action ? -softplus(-z) : -softplus(z)
Tensor bernoulli_log_prob(Tensor logits, const std::vector<int>& actions);

/// Row-wise categorical log-likelihood: logits (n,k), actions (n) in [0,k).
Tensor categorical_log_prob(Tensor logits, const std::vector<int>& actions);

/// Per-element entropy of Bernoulli(sigmoid(z)):
///   H(z) = p*softplus(-z) + (1-p)*softplus(z),  dH/dz = -z * p * (1-p).
/// Numerically stable at extreme logits (H -> 0).
Tensor bernoulli_entropy(Tensor logits);

/// Row-wise softmax of a 2-D tensor (forward-only convenience for sampling;
/// differentiable as well).
Tensor softmax_rows(Tensor logits);

// ---- Fused ops --------------------------------------------------------------
// Each fused op computes a composition of primitive ops in a single pass (one
// result tensor, one backward node) instead of materialising every
// intermediate. Values and gradients are bit-identical to the primitive
// composition: the element-wise arithmetic, the GEMM kernels invoked, and the
// gradient accumulation order are all preserved exactly (tests/nn compare
// them against the composition).

/// tanh(x @ w + b) in one pass: GEMM + bias + tanh without materialising the
/// pre-activation. `b` may be undefined (no bias term).
Tensor linear_tanh(Tensor x, Tensor w, Tensor b);

/// tanh(base[index] + add_term) in one pass — the edge-message construction
/// of the edge-aware encoder (gather_rows + add + tanh_op). `add_term` may be
/// undefined (plain gather + tanh). add_term must be (index.size(), base.cols()).
Tensor gather_add_tanh(Tensor base, const std::vector<std::size_t>& index,
                       Tensor add_term);

/// The whole REINFORCE policy-gradient loss in one vectorized op:
///
///   out = final_scale * Σ_j coeffs[j] · Σ_i bernoulli_logp(logits[i], masks[j][i])
///
/// replacing the per-episode add(loss, scale(sum(bernoulli_log_prob(...))))
/// chain with a single backward node. masks[j] are 0/1 edge masks of
/// logits.size() entries each; coeffs are the per-episode scalars (e.g.
/// negative advantages).
Tensor masked_logprob_sum(Tensor logits, std::vector<std::vector<int>> masks,
                          std::vector<double> coeffs, double final_scale = 1.0);

// ---- Dense kernels ----------------------------------------------------------
// Row-major GEMM microkernels used by matmul / matmul_nt forward and backward:
// register-blocked kernels at the SIMD tier simd::active() (nn/simd.hpp) that
// fan row panels out over ThreadPool::global() above a size threshold.
// Results are independent of the pool size (each output element is
// accumulated in a fixed order by exactly one thread).
namespace kernels {

/// C (n,m) = (or +=) A (n,k) · B (k,m).
void gemm_nn(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
             std::size_t m, bool accumulate);
/// C (n,k) += A (n,m) · B (k,m)^T.
void gemm_nt(const double* a, const double* b, double* c, std::size_t n, std::size_t m,
             std::size_t k);
/// C (k,m) += A (n,k)^T · B (n,m).
void gemm_tn(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
             std::size_t m);

}  // namespace kernels

}  // namespace sc::nn
