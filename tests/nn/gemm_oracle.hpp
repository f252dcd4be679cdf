// Reference GEMM loops for the nn tests: plain triple loops with the same
// signatures as nn::kernels::gemm_nn / gemm_nt / gemm_tn. The production
// kernels (register-blocked, SIMD-dispatched, panel-parallel) must agree with
// these within 1e-12 per element.
#pragma once

#include <algorithm>
#include <cstddef>

namespace sc::nn::oracle {

/// C (n,m) = (or +=) A (n,k) · B (k,m).
inline void gemm_nn(const double* a, const double* b, double* c, std::size_t n,
                    std::size_t k, std::size_t m, bool accumulate) {
  if (!accumulate) std::fill(c, c + n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double av = a[i * k + p];
      if (av == 0.0) continue;
      const double* brow = b + p * m;
      double* crow = c + i * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C (n,k) += A (n,m) · B (k,m)^T.
inline void gemm_nt(const double* a, const double* b, double* c, std::size_t n,
                    std::size_t m, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double* arow = a + i * m;
      const double* brow = b + j * m;
      double acc = 0.0;
      for (std::size_t p = 0; p < m; ++p) acc += arow[p] * brow[p];
      c[i * k + j] += acc;
    }
  }
}

/// C (k,m) += A (n,k)^T · B (n,m).
inline void gemm_tn(const double* a, const double* b, double* c, std::size_t n,
                    std::size_t k, std::size_t m) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    const double* brow = b + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      double* crow = c + p * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace sc::nn::oracle
