// AVX2/FMA kernels for the GEMM family.
//
// This translation unit — and ONLY this one — is compiled with
// -mavx2 -mfma (see the set_source_files_properties call in
// CMakeLists.txt), so nothing outside the guarded block below may be
// reached on a CPU without those extensions. Backend dispatch and the
// runtime CPU check live in backend.cpp, which is built with the project's
// baseline flags; the kernels here are invoked only after both
// kernels_compiled() and the CPU check pass.
//
// Vectorization strategy: the reference kernels' outer structure is kept
// verbatim (same row order, same k-loop order), and only the innermost
// contiguous j-loops become 256-bit FMA lanes. That preserves the
// per-backend determinism contract — a fixed operation order on every run —
// while replacing the two-rounding
// multiply-add with single-rounding FMA, which is why avx2 results sit in
// the banded (not bitwise) equivalence class against reference.

#include "linalg/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define IMRDMD_AVX2_KERNELS 1
#endif

namespace imrdmd::linalg::avx2 {

bool kernels_compiled() {
#ifdef IMRDMD_AVX2_KERNELS
  return true;
#else
  return false;
#endif
}

#ifdef IMRDMD_AVX2_KERNELS

namespace {

// crow[0..n) += aik * brow[0..n): one broadcast FMA pass, 8 doubles per
// iteration (two 256-bit lanes) to keep both FMA ports busy.
inline void axpy_row(double aik, const double* __restrict__ brow,
                     double* __restrict__ crow, std::size_t n) {
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < n; ++j) crow[j] += aik * brow[j];
}

// crow[0..n) -= aik * brow[0..n).
inline void axmy_row(double aik, const double* __restrict__ brow,
                     double* __restrict__ crow, std::size_t n) {
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    c0 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    c1 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    c0 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < n; ++j) crow[j] -= aik * brow[j];
}

// sum(arow[0..k) * brow[0..k)) with two independent accumulators; the
// horizontal reduction at the end fixes the lane-sum order, keeping the
// kernel deterministic run-to-run.
inline double dot_row(const double* __restrict__ arow,
                      const double* __restrict__ brow, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk),
                           _mm256_loadu_pd(brow + kk), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk + 4),
                           _mm256_loadu_pd(brow + kk + 4), acc1);
  }
  for (; kk + 4 <= k; kk += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk),
                           _mm256_loadu_pd(brow + kk), acc0);
  }
  acc0 = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc0);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; kk < k; ++kk) sum += arow[kk] * brow[kk];
  return sum;
}

}  // namespace

void matmul_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const double* __restrict__ bp = b.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = a.data() + i * k;
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      // Zero-skip kept from the reference kernel: the iSVD core matrices
      // are mostly structural zeros and the branch wins there.
      if (aik == 0.0) continue;
      axpy_row(aik, bp + kk * n, crow, n);
    }
  }
}

void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  for (std::size_t i = 0; i < m; ++i) {
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aki = a(kk, i);
      if (aki == 0.0) continue;
      axpy_row(aki, b.data() + kk * n, crow, n);
    }
  }
}

void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  if (m == 0 || k == 0 || n == 0) return;
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = a.data() + i * k;
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      crow[j] = dot_row(arow, b.data() + j * k, k);
    }
  }
}

void matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const double* __restrict__ bp = b.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = a.data() + i * k;
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;
      axmy_row(aik, bp + kk * n, crow, n);
    }
  }
}

#else  // !IMRDMD_AVX2_KERNELS

// Unreachable by construction (backend.cpp gates on kernels_compiled()),
// but defined so the symbol set is identical on every target.
void matmul_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_into(a, b, out);
}
void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_at_b_into(a, b, out);
}
void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_a_bt_into(a, b, out);
}
void matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_sub(a, b, out);
}

#endif  // IMRDMD_AVX2_KERNELS

}  // namespace imrdmd::linalg::avx2
