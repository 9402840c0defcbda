// Optional cblas/LAPACKE backend ("openblas").
//
// Compiled into the registry only when CMake was configured with
// -DIMRDMD_WITH_OPENBLAS=ON; otherwise this TU contributes just the
// nullptr factory so backend.cpp needs no conditional compilation. The
// mapping targets the stable netlib cblas/LAPACKE C interfaces, so any
// conforming provider links — OpenBLAS is simply the one CI installs.
//
// Contract notes (vs the reference kernels, see backend.hpp):
//   * GEMM family: identical up to floating-point summation order
//     (banded equivalence).
//   * thin_qr_into: dgeqrf/dorgqr plus the repo's diag(R) >= 0 sign
//     normalization, so factors are comparable with reference QR.
//   * svd_into: dgesdd. Singular vectors may differ from Jacobi by column
//     sign (and rotation within degenerate clusters), and exactly-zero
//     singular values get an arbitrary orthonormal basis column rather
//     than the reference's zero column — both inside the banded contract,
//     which checks s, reconstruction, and orthonormality.

#include "linalg/backend.hpp"

#ifdef IMRDMD_WITH_OPENBLAS

#include <cblas.h>
#include <lapacke.h>

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"

namespace imrdmd::linalg {

namespace {

class OpenBlasBackend final : public Backend {
 public:
  const char* name() const override { return "openblas"; }
  std::string capabilities() const override {
    return "cblas dgemm + LAPACKE dgeqrf/dorgqr/dgesdd (vendor-threaded)";
  }

  void matmul_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(CblasNoTrans, CblasNoTrans, a.rows(), b.cols(), a.cols(), 1.0, a, b,
         0.0, out);
  }
  void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(CblasTrans, CblasNoTrans, a.cols(), b.cols(), a.rows(), 1.0, a, b,
         0.0, out);
  }
  void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) override {
    gemm(CblasNoTrans, CblasTrans, a.rows(), b.rows(), a.cols(), 1.0, a, b,
         0.0, out);
  }
  void matmul_sub(const Mat& a, const Mat& b, Mat& out) override {
    gemm(CblasNoTrans, CblasNoTrans, a.rows(), b.cols(), a.cols(), -1.0, a, b,
         1.0, out);
  }

  void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) override {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    ws.work = a;
    ws.taus.assign(n, 0.0);
    if (n > 0) {
      const lapack_int info = LAPACKE_dgeqrf(
          LAPACK_ROW_MAJOR, static_cast<lapack_int>(m),
          static_cast<lapack_int>(n), ws.work.data(),
          static_cast<lapack_int>(n), ws.taus.data());
      if (info != 0) throw NumericalError("LAPACKE_dgeqrf failed");
    }
    // Extract R with the repo's sign normalization: diag(R) >= 0, the
    // matching Q columns flipped below, so A = (Q S)(S R) still holds.
    out.r.assign_zero(n, n);
    ws.signs.assign(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.work(i, i) < 0.0) ws.signs[i] = -1.0;
      for (std::size_t j = i; j < n; ++j) {
        out.r(i, j) = ws.signs[i] * ws.work(i, j);
      }
    }
    if (n > 0) {
      const lapack_int info = LAPACKE_dorgqr(
          LAPACK_ROW_MAJOR, static_cast<lapack_int>(m),
          static_cast<lapack_int>(n), static_cast<lapack_int>(n),
          ws.work.data(), static_cast<lapack_int>(n), ws.taus.data());
      if (info != 0) throw NumericalError("LAPACKE_dorgqr failed");
    }
    out.q.assign_zero(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        out.q(i, j) = ws.signs[j] * ws.work(i, j);
      }
    }
  }

  void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) override {
    const std::size_t m = x.rows();
    const std::size_t n = x.cols();
    const std::size_t r0 = std::min(m, n);
    ws.a = x;  // dgesdd destroys its input
    out.s.resize(r0);
    out.u.assign_zero(m, r0);
    ws.v.assign_zero(r0, n);  // receives V^T
    const lapack_int info = LAPACKE_dgesdd(
        LAPACK_ROW_MAJOR, 'S', static_cast<lapack_int>(m),
        static_cast<lapack_int>(n), ws.a.data(), static_cast<lapack_int>(n),
        out.s.data(), out.u.data(), static_cast<lapack_int>(r0),
        ws.v.data(), static_cast<lapack_int>(n));
    if (info != 0) throw NumericalError("LAPACKE_dgesdd did not converge");
    out.v.assign_zero(n, r0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < r0; ++j) out.v(i, j) = ws.v(j, i);
    }
  }

 private:
  static void gemm(CBLAS_TRANSPOSE trans_a, CBLAS_TRANSPOSE trans_b,
                   std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const Mat& a, const Mat& b, double beta, Mat& out) {
    if (m == 0 || n == 0) return;
    if (k == 0) return;  // out is pre-zeroed / already holds the minuend
    cblas_dgemm(CblasRowMajor, trans_a, trans_b, static_cast<int>(m),
                static_cast<int>(n), static_cast<int>(k), alpha,
                a.data(), static_cast<int>(a.cols()), b.data(),
                static_cast<int>(b.cols()), beta, out.data(),
                static_cast<int>(n));
  }
};

}  // namespace

namespace detail {

std::unique_ptr<Backend> make_openblas_backend() {
  return std::make_unique<OpenBlasBackend>();
}

}  // namespace detail

}  // namespace imrdmd::linalg

#else  // !IMRDMD_WITH_OPENBLAS

namespace imrdmd::linalg::detail {

std::unique_ptr<Backend> make_openblas_backend() { return nullptr; }

}  // namespace imrdmd::linalg::detail

#endif  // IMRDMD_WITH_OPENBLAS
