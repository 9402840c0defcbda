// Shared helpers for the test suites.
#pragma once

#include <cmath>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace imrdmd::testing {

/// Random matrix with i.i.d. standard normal entries.
inline linalg::Mat random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  linalg::Mat m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Random matrix of the given (approximate numerical) rank.
inline linalg::Mat random_low_rank(std::size_t rows, std::size_t cols,
                                   std::size_t rank, Rng& rng) {
  const linalg::Mat a = random_matrix(rows, rank, rng);
  const linalg::Mat b = random_matrix(rank, cols, rng);
  return linalg::matmul(a, b);
}

/// Max |a - b| over all entries.
inline double max_abs_diff(const linalg::Mat& a, const linalg::Mat& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// ||A^T A - I||_max: orthonormality defect of A's columns.
inline double orthogonality_defect(const linalg::Mat& a) {
  const linalg::Mat gram = linalg::matmul_at_b(a, a);
  double worst = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      const double target = i == j ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(gram(i, j) - target));
    }
  }
  return worst;
}

/// Multi-timescale planted signal: slow trend + mid oscillation + fast
/// oscillation + optional noise. Sensor p gets phase-shifted copies.
inline linalg::Mat planted_multiscale(std::size_t sensors, std::size_t steps,
                                      double noise, Rng& rng) {
  linalg::Mat m(sensors, steps);
  for (std::size_t p = 0; p < sensors; ++p) {
    const double phase = 0.13 * static_cast<double>(p);
    for (std::size_t t = 0; t < steps; ++t) {
      const double x = static_cast<double>(t) / static_cast<double>(steps);
      double value = 2.0 * std::sin(2.0 * M_PI * 1.0 * x + phase);   // slow
      value += 0.8 * std::sin(2.0 * M_PI * 12.0 * x + 2.0 * phase);  // mid
      value += 0.3 * std::sin(2.0 * M_PI * 70.0 * x + 3.0 * phase);  // fast
      if (noise > 0.0) value += noise * rng.normal();
      m(p, t) = value;
    }
  }
  return m;
}

/// The bytes of a checked-in file under tests/data/.
inline std::string test_data_bytes(const std::string& name) {
  const std::string path = std::string(IMRDMD_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

/// The golden checkpoint pair in tests/data/: one flat monolithic engine
/// (planted_multiscale(15, 384, 0.02, Rng(7)); max_levels 4, dt 1,
/// baseline [-10, 10]) after chunks [0, 256) and [256, 320), saved once in
/// the IMRDPL1 pipeline container and once in IMRDFL1. The library only
/// loads IMRDPL1, so this file is that loader's only input.
inline constexpr const char* kGoldenPipelineCheckpoint =
    "pipeline_chunk2.imrdpl1";
inline constexpr const char* kGoldenFleetCheckpoint =
    "pipeline_chunk2.imrdfl1";

}  // namespace imrdmd::testing
