#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/kernels.hpp"
#include "linalg/qr.hpp"

namespace imrdmd::linalg {

void SvdResult::truncate(std::size_t rank) {
  rank = std::min(rank, s.size());
  u = u.block(0, 0, u.rows(), rank);
  v = v.block(0, 0, v.rows(), rank);
  s.resize(rank);
}

namespace {

// Applies the plane rotation [c -s; s c] to the row pair (x, y).
void rotate(double* x, double* y, std::size_t len, double c, double s) {
  for (std::size_t i = 0; i < len; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// One-sided Jacobi on a tall m x n matrix A (m >= n) held transposed in
// ws.a, so each column of A is a contiguous row: rotates column pairs until
// they are mutually orthogonal; the rotations accumulate into V (held
// transposed in ws.v), the final column norms are the singular values and
// the normalized columns form U. Temporaries live in `ws` and the factors
// land in `result`, both reused across calls by the streaming hot paths.
void jacobi_svd_tall_into(SvdResult& result, SvdWorkspace& ws) {
  Mat& at = ws.a;
  const std::size_t n = at.rows();
  const std::size_t m = at.cols();
  // Pre-scale so squared column norms can neither overflow nor underflow
  // for inputs anywhere near the double range; undone on the spectrum.
  double max_abs = 0.0;
  for (std::size_t i = 0; i < at.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(at.data()[i]));
  }
  const double prescale = max_abs > 0.0 ? 1.0 / max_abs : 1.0;
  if (prescale != 1.0) at *= prescale;
  Mat& vt = ws.v;
  vt.assign_zero(n, n);
  for (std::size_t i = 0; i < n; ++i) vt(i, i) = 1.0;
  const auto col = [&](std::size_t j) { return at.row_span(j); };

  const double eps = 1e-15;
  // Columns whose squared norm has fallen to rounding-noise level (relative
  // to the matrix norm) are numerically zero; rotating against them chases
  // correlated cancellation residue forever, so they are skipped.
  const double total_sq = dot({at.data(), at.size()}, {at.data(), at.size()});
  const double noise_floor_sq = (eps * eps) * total_sq;
  std::vector<double>& norms = ws.norms;
  norms.resize(n);
  const std::size_t max_sweeps = 60;
  bool converged = false;
  for (std::size_t sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    // Squared column norms, exact at the start of each sweep and carried
    // through its rotations in closed form, so a pair costs one dot product.
    for (std::size_t j = 0; j < n; ++j) norms[j] = dot(col(j), col(j));
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double app = norms[p], aqq = norms[q];
        if (app <= noise_floor_sq || aqq <= noise_floor_sq) continue;
        const double apq = dot(col(p), col(q));
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        converged = false;
        // Closed-form Jacobi rotation diagonalizing [[app, apq], [apq, aqq]].
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate(col(p).data(), col(q).data(), m, c, s);
        rotate(vt.row_span(p).data(), vt.row_span(q).data(), n, c, s);
        norms[p] = app - t * apq;
        norms[q] = aqq + t * apq;
      }
    }
  }
  if (!converged) {
    // Jacobi converges quadratically; 60 sweeps not sufficing signals NaNs
    // or infinities in the input rather than a hard problem.
    throw NumericalError("jacobi_svd did not converge (input finite?)");
  }

  for (std::size_t j = 0; j < n; ++j) norms[j] = std::sqrt(dot(col(j), col(j)));
  std::vector<std::size_t>& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) { return norms[i] > norms[j]; });

  result.s.resize(n);
  result.u.assign_zero(m, n);
  result.v.assign_zero(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    result.s[k] = norms[j] * (max_abs > 0.0 ? max_abs : 1.0);
    if (norms[j] > 0.0) {
      const double inv = 1.0 / norms[j];
      for (std::size_t i = 0; i < m; ++i) result.u(i, k) = at(j, i) * inv;
    }
    for (std::size_t i = 0; i < n; ++i) result.v(i, k) = vt(j, i);
  }
}

}  // namespace

// Reference Jacobi kernel (the "reference" backend; see kernels.hpp).
void ref::svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) {
  // The kernel takes the tall side transposed, which a row-major wide x
  // already is; factoring it swaps the singular vector roles.
  if (x.rows() >= x.cols()) {
    x.transposed_into(ws.a);
    jacobi_svd_tall_into(out, ws);
    return;
  }
  ws.a = x;
  jacobi_svd_tall_into(out, ws);
  std::swap(out.u, out.v);
}

void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) {
  IMRDMD_REQUIRE_DIMS(!x.empty(), "svd of an empty matrix");
  active_backend().svd_into(x, out, ws);
}

SvdResult svd(const Mat& x) {
  SvdResult result;
  SvdWorkspace ws;
  svd_into(x, result, ws);
  return result;
}

SvdResult randomized_svd(const Mat& x, std::size_t k, Rng& rng,
                         std::size_t oversample, std::size_t power_iters) {
  IMRDMD_REQUIRE_DIMS(!x.empty(), "randomized_svd of an empty matrix");
  IMRDMD_REQUIRE_ARG(k >= 1, "randomized_svd rank must be >= 1");
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  const std::size_t sketch = std::min(std::min(m, n), k + oversample);

  Mat omega(n, sketch);
  for (std::size_t i = 0; i < omega.size(); ++i) omega.data()[i] = rng.normal();

  Mat y = matmul(x, omega);            // m x sketch range sample
  Mat q = thin_qr(y).q;
  for (std::size_t it = 0; it < power_iters; ++it) {
    // Subspace iteration sharpens the spectrum: Q <- orth(X X^T Q).
    Mat z = matmul_at_b(x, q);         // n x sketch
    z = thin_qr(z).q;
    y = matmul(x, z);
    q = thin_qr(y).q;
  }

  Mat b = matmul_at_b(q, x);           // sketch x n projected problem
  SvdResult small = svd(b);
  SvdResult result;
  result.u = matmul(q, small.u);
  result.s = std::move(small.s);
  result.v = std::move(small.v);
  result.truncate(std::min(k, result.s.size()));
  return result;
}

Mat pinv(const Mat& x, double rcond) {
  SvdResult f = svd(x);
  const double cutoff = f.s.empty() ? 0.0 : rcond * f.s.front();
  // pinv = V diag(1/s) U^T, dropping negligible singular values.
  Mat vs = f.v;  // n x r, columns scaled by 1/s
  for (std::size_t j = 0; j < f.s.size(); ++j) {
    const double inv = f.s[j] > cutoff ? 1.0 / f.s[j] : 0.0;
    scale_col(vs, j, inv);
  }
  return matmul_a_bt(vs, f.u);
}

std::size_t svht_rank(const std::vector<double>& singular_values,
                      std::size_t rows, std::size_t cols) {
  if (singular_values.empty() || singular_values.front() <= 0.0) return 0;
  IMRDMD_REQUIRE_ARG(rows > 0 && cols > 0, "svht_rank needs a real shape");
  const double beta =
      static_cast<double>(std::min(rows, cols)) / static_cast<double>(std::max(rows, cols));
  // Gavish-Donoho rational approximation of omega(beta) for unknown noise.
  const double omega = 0.56 * beta * beta * beta - 0.95 * beta * beta +
                       1.82 * beta + 1.43;
  // Median of the (descending) spectrum.
  std::vector<double> sorted = singular_values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double median = n % 2 == 1
                            ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  const double tau = omega * median;
  std::size_t rank = 0;
  for (double s : singular_values) {
    if (s > tau) ++rank;
  }
  return std::max<std::size_t>(rank, 1);
}

}  // namespace imrdmd::linalg
