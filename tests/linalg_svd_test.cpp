// Unit + property tests for the Jacobi SVD, randomized SVD, pinv, and SVHT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "test_util.hpp"

namespace imrdmd::linalg {
namespace {

using imrdmd::testing::max_abs_diff;
using imrdmd::testing::orthogonality_defect;
using imrdmd::testing::random_low_rank;
using imrdmd::testing::random_matrix;

Mat reassemble(const SvdResult& f) {
  Mat us = f.u;
  for (std::size_t j = 0; j < f.s.size(); ++j) scale_col(us, j, f.s[j]);
  return matmul_a_bt(us, f.v);
}

// The core matrix of an iSVD update, K = [diag(s) M; 0 R]: r singular
// values spread over six decades, a dense r x c coupling block M and an
// upper-triangular c x c residual factor R.
Mat isvd_core(std::size_t r, std::size_t c, Rng& rng) {
  Mat k(r + c, r + c);
  for (std::size_t i = 0; i < r; ++i) {
    k(i, i) = std::pow(10.0, -6.0 * static_cast<double>(i) /
                                 static_cast<double>(r - 1));
    for (std::size_t j = 0; j < c; ++j) k(i, r + j) = rng.normal();
  }
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = i; j < c; ++j) k(r + i, r + j) = rng.normal();
  }
  return k;
}

// The reference Jacobi kernel, whichever backend the environment selects.
SvdResult reference_svd(const Mat& x) {
  SvdResult out;
  SvdWorkspace ws;
  find_backend("reference")->svd_into(x, out, ws);
  return out;
}

bool bitwise_equal(const Mat& a, const Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Svd, ReconstructsTallMatrix) {
  Rng rng(1);
  const Mat a = random_matrix(12, 5, rng);
  const SvdResult f = svd(a);
  EXPECT_LT(max_abs_diff(reassemble(f), a), 1e-11);
}

TEST(Svd, ReconstructsWideMatrix) {
  Rng rng(2);
  const Mat a = random_matrix(4, 17, rng);
  const SvdResult f = svd(a);
  EXPECT_LT(max_abs_diff(reassemble(f), a), 1e-11);
}

TEST(Svd, SingularValuesSortedDescending) {
  Rng rng(3);
  const SvdResult f = svd(random_matrix(20, 8, rng));
  for (std::size_t i = 1; i < f.s.size(); ++i) EXPECT_LE(f.s[i], f.s[i - 1]);
}

TEST(Svd, FactorsAreOrthonormal) {
  Rng rng(4);
  const SvdResult f = svd(random_matrix(15, 6, rng));
  EXPECT_LT(orthogonality_defect(f.u), 1e-11);
  EXPECT_LT(orthogonality_defect(f.v), 1e-11);
}

TEST(Svd, KnownDiagonalCase) {
  Mat a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -5.0;  // sign absorbed into the singular vectors
  a(2, 2) = 1.0;
  const SvdResult f = svd(a);
  ASSERT_EQ(f.s.size(), 3u);
  EXPECT_NEAR(f.s[0], 5.0, 1e-12);
  EXPECT_NEAR(f.s[1], 3.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, ExactlyLowRankInputHasZeroTail) {
  Rng rng(5);
  const Mat a = random_low_rank(20, 10, 3, rng);
  const SvdResult f = svd(a);
  for (std::size_t i = 3; i < f.s.size(); ++i) {
    EXPECT_LT(f.s[i], 1e-10 * f.s[0]);
  }
  EXPECT_LT(max_abs_diff(reassemble(f), a), 1e-10);
}

TEST(Svd, RepeatedSingularValues) {
  // Orthogonal matrix: all singular values are exactly 1.
  Rng rng(6);
  const SvdResult base = svd(random_matrix(8, 8, rng));
  const Mat orth = base.u;  // orthonormal columns
  const SvdResult f = svd(orth);
  for (double s : f.s) EXPECT_NEAR(s, 1.0, 1e-11);
}

TEST(Svd, SingleColumn) {
  Mat a(4, 1);
  a(0, 0) = 3.0;
  a(1, 0) = 4.0;
  const SvdResult f = svd(a);
  EXPECT_NEAR(f.s[0], 5.0, 1e-13);
}

TEST(Svd, TruncateKeepsLeadingTriplets) {
  Rng rng(7);
  SvdResult f = svd(random_matrix(10, 6, rng));
  const double s0 = f.s[0];
  f.truncate(2);
  EXPECT_EQ(f.s.size(), 2u);
  EXPECT_EQ(f.u.cols(), 2u);
  EXPECT_EQ(f.v.cols(), 2u);
  EXPECT_EQ(f.s[0], s0);
}

TEST(Svd, TinyAndHugeScalesSurvive) {
  Rng rng(8);
  for (double scale : {1e-150, 1e-30, 1e30, 1e150}) {
    Mat a = random_matrix(6, 4, rng);
    a *= scale;
    const SvdResult f = svd(a);
    const double norm = frobenius_norm(a);
    EXPECT_LT(max_abs_diff(reassemble(f), a), 1e-11 * norm);
  }
}

TEST(Svd, NonFiniteInputFailsLoudly) {
  // NaN or Inf must not silently corrupt a decomposition: the Jacobi sweep
  // throws, whichever side of the matrix is tall.
  Mat nan_input(4, 3, 1.0);
  nan_input(2, 1) = std::nan("");
  EXPECT_THROW(svd(nan_input), NumericalError);
  Rng rng(15);
  const std::vector<Mat> shapes = {random_matrix(30, 6, rng),
                                   random_matrix(6, 30, rng),
                                   isvd_core(32, 2, rng)};
  for (const Mat& clean : shapes) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      Mat a = clean;
      a(a.rows() / 2, 1) = bad;
      EXPECT_THROW(reference_svd(a), NumericalError)
          << a.rows() << "x" << a.cols() << " with " << bad;
    }
  }
}

TEST(Svd, ReusedWorkspaceMatchesFreshBitwise) {
  // Buffers left over from an earlier call must not leak into the next
  // decomposition, whether the shape changes or repeats (the tall and wide
  // calls share a 9-wide short side, so their working copies coincide).
  Backend* reference = find_backend("reference");
  ASSERT_NE(reference, nullptr);
  Rng rng(16);
  const std::vector<Mat> inputs = {
      random_matrix(40, 9, rng), random_matrix(9, 50, rng),
      random_matrix(12, 12, rng), random_matrix(20, 3, rng)};
  SvdWorkspace shared;
  SvdResult reused;
  for (const Mat& x : inputs) {
    reference->svd_into(x, reused, shared);
    SvdWorkspace fresh_ws;
    SvdResult fresh;
    reference->svd_into(x, fresh, fresh_ws);
    EXPECT_TRUE(bitwise_equal(reused.u, fresh.u)) << x.rows() << "x" << x.cols();
    EXPECT_TRUE(bitwise_equal(reused.v, fresh.v)) << x.rows() << "x" << x.cols();
    ASSERT_EQ(reused.s.size(), fresh.s.size());
    EXPECT_EQ(std::memcmp(reused.s.data(), fresh.s.data(),
                          fresh.s.size() * sizeof(double)),
              0);
  }
}

// Accuracy on the iSVD core shape across ranks and block widths.
class SvdIsvdCore
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SvdIsvdCore, AccurateOrthonormalAndDescending) {
  const auto [r, c] = GetParam();
  Rng rng(r * 31 + c);
  const Mat k = isvd_core(r, c, rng);
  const SvdResult f = reference_svd(k);
  double max_k = 0.0;
  for (std::size_t i = 0; i < k.size(); ++i) {
    max_k = std::max(max_k, std::abs(k.data()[i]));
  }
  EXPECT_LE(max_abs_diff(reassemble(f), k), 1e-13 * max_k);
  EXPECT_LE(orthogonality_defect(f.u), 1e-12);
  EXPECT_LE(orthogonality_defect(f.v), 1e-12);
  for (std::size_t i = 1; i < f.s.size(); ++i) EXPECT_LE(f.s[i], f.s[i - 1]);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdIsvdCore,
                         ::testing::Combine(::testing::Values(32u, 96u),
                                            ::testing::Values(1u, 2u, 8u)));

TEST(RandomizedSvd, MatchesExactOnLowRank) {
  Rng rng(9);
  const Mat a = random_low_rank(60, 40, 4, rng);
  Rng sketch_rng(10);
  const SvdResult approx = randomized_svd(a, 4, sketch_rng);
  const SvdResult exact = svd(a);
  ASSERT_EQ(approx.s.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(approx.s[i], exact.s[i], 1e-8 * exact.s[0]);
  }
  // Rank-4 reconstruction must match the matrix itself.
  Mat us = approx.u;
  for (std::size_t j = 0; j < 4; ++j) scale_col(us, j, approx.s[j]);
  EXPECT_LT(max_abs_diff(matmul_a_bt(us, approx.v), a), 1e-7 * exact.s[0]);
}

TEST(RandomizedSvd, CapturesDominantSpectrumOfFullRank) {
  Rng rng(11);
  const Mat a = random_matrix(80, 50, rng);
  Rng sketch_rng(12);
  const SvdResult approx = randomized_svd(a, 5, sketch_rng, 10, 3);
  const SvdResult exact = svd(a);
  // Leading singular value estimates are accurate to a few percent.
  EXPECT_NEAR(approx.s[0], exact.s[0], 0.05 * exact.s[0]);
}

TEST(Pinv, SatisfiesMoorePenroseOnRankDeficient) {
  Rng rng(13);
  const Mat a = random_low_rank(10, 7, 3, rng);
  const Mat ap = pinv(a);
  // A A+ A = A and A+ A A+ = A+.
  EXPECT_LT(max_abs_diff(matmul(matmul(a, ap), a), a), 1e-9);
  EXPECT_LT(max_abs_diff(matmul(matmul(ap, a), ap), ap), 1e-9);
}

TEST(Pinv, InvertsNonsingularSquare) {
  Rng rng(14);
  const Mat a = random_matrix(6, 6, rng);
  const Mat ident = matmul(a, pinv(a));
  EXPECT_LT(max_abs_diff(ident, Mat::identity(6)), 1e-9);
}

TEST(Svht, ZeroSpectrumGivesRankZero) {
  EXPECT_EQ(svht_rank({0.0, 0.0}, 10, 5), 0u);
  EXPECT_EQ(svht_rank({}, 10, 5), 0u);
}

TEST(Svht, CleanLowRankPlusNoiseRecoversRank) {
  // 3 strong values over a noise floor: threshold must land between.
  std::vector<double> s{100.0, 80.0, 60.0};
  for (int i = 0; i < 47; ++i) s.push_back(1.0 + 0.01 * i);
  std::sort(s.begin(), s.end(), std::greater<>());
  EXPECT_EQ(svht_rank(s, 500, 50), 3u);
}

TEST(Svht, NeverReturnsZeroForNonzeroSpectrum) {
  EXPECT_GE(svht_rank({1.0, 1.0, 1.0}, 10, 3), 1u);
}

// Property sweep: reconstruction accuracy across shapes.
class SvdShapes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvdShapes, ReconstructionAndOrthogonality) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 997 + cols));
  const Mat a = random_matrix(rows, cols, rng);
  const SvdResult f = svd(a);
  const double norm = frobenius_norm(a);
  EXPECT_LT(max_abs_diff(reassemble(f), a), 1e-12 * (norm + 1.0))
      << rows << "x" << cols;
  EXPECT_LT(orthogonality_defect(f.u), 1e-10);
  EXPECT_LT(orthogonality_defect(f.v), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 2),
                      std::make_tuple(3, 10), std::make_tuple(10, 3),
                      std::make_tuple(32, 32), std::make_tuple(100, 15),
                      std::make_tuple(15, 100), std::make_tuple(200, 8)));

}  // namespace
}  // namespace imrdmd::linalg
