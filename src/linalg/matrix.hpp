// Dense row-major matrix, instantiated for double and std::complex<double>.
//
// Design notes:
//   * Row-major storage: sensor-major layouts (P rows of T samples) dominate
//     this codebase and row-major keeps a sensor's time series contiguous.
//   * No expression templates — the heavy kernels live in blas.hpp behind
//     the linalg backend seam; Matrix itself only carries cheap element-wise
//     operators.
//   * Shapes are validated with IMRDMD_REQUIRE_DIMS; an empty (0x0) matrix is
//     a valid value (the result of decomposing nothing).
#pragma once

#include <complex>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace imrdmd::linalg {

/// Alignment (bytes) of Matrix backing storage. 32 bytes covers AVX2
/// 256-bit vector loads on double data; wider ISAs with unaligned-load
/// parity (AVX-512 on current cores) lose nothing.
inline constexpr std::size_t kMatrixAlignment = 32;

/// Minimal stateless allocator handing out kMatrixAlignment-aligned
/// buffers, so SIMD backends may assume data() alignment whenever the
/// row stride cooperates. Always-equal semantics match std::allocator.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kMatrixAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kMatrixAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

template <typename T>
class Matrix {
 public:
  using value_type = T;

  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, T fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must agree in length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      IMRDMD_REQUIRE_DIMS(row.size() == cols_, "ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// n x n identity.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked element access (used by parsers and tests).
  T& at(std::size_t i, std::size_t j) {
    IMRDMD_REQUIRE_DIMS(i < rows_ && j < cols_, "Matrix::at out of range");
    return (*this)(i, j);
  }
  const T& at(std::size_t i, std::size_t j) const {
    IMRDMD_REQUIRE_DIMS(i < rows_ && j < cols_, "Matrix::at out of range");
    return (*this)(i, j);
  }

  /// Contiguous view of row i.
  std::span<T> row_span(std::size_t i) {
    return std::span<T>(data_.data() + i * cols_, cols_);
  }
  std::span<const T> row_span(std::size_t i) const {
    return std::span<const T>(data_.data() + i * cols_, cols_);
  }

  /// Copy of column j.
  std::vector<T> col(std::size_t j) const {
    IMRDMD_REQUIRE_DIMS(j < cols_, "column index out of range");
    std::vector<T> out(rows_);
    for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
    return out;
  }

  /// Overwrites column j.
  void set_col(std::size_t j, std::span<const T> values) {
    IMRDMD_REQUIRE_DIMS(j < cols_ && values.size() == rows_,
                        "set_col shape mismatch");
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = values[i];
  }

  /// Copies the sub-block starting at (r0, c0) of shape nr x nc.
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const {
    IMRDMD_REQUIRE_DIMS(r0 + nr <= rows_ && c0 + nc <= cols_,
                        "block out of range");
    Matrix out(nr, nc);
    for (std::size_t i = 0; i < nr; ++i) {
      const T* src = data_.data() + (r0 + i) * cols_ + c0;
      T* dst = out.data() + i * nc;
      std::copy(src, src + nc, dst);
    }
    return out;
  }

  /// Overwrites the sub-block starting at (r0, c0) with `m`.
  void set_block(std::size_t r0, std::size_t c0, const Matrix& m) {
    IMRDMD_REQUIRE_DIMS(r0 + m.rows() <= rows_ && c0 + m.cols() <= cols_,
                        "set_block out of range");
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const T* src = m.data() + i * m.cols();
      T* dst = data_.data() + (r0 + i) * cols_ + c0;
      std::copy(src, src + m.cols(), dst);
    }
  }

  /// Plain transpose (no conjugation; see blas.hpp for adjoints).
  Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    }
    return out;
  }

  /// Resizes destructively; contents become zero. Backing storage is
  /// reused when capacity suffices, so workspace buffers cycled through
  /// assign_zero are allocation-free once warmed to their peak size.
  void assign_zero(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// Pre-allocates backing storage for `elements` values without changing
  /// the shape (the Matrix analogue of std::vector::reserve).
  void reserve(std::size_t elements) { data_.reserve(elements); }
  std::size_t capacity() const { return data_.capacity(); }

  /// Keeps only the leading `keep` columns, repacking rows in place —
  /// no allocation, unlike block().
  void shrink_cols(std::size_t keep) {
    IMRDMD_REQUIRE_DIMS(keep <= cols_, "shrink_cols beyond column count");
    if (keep == cols_) return;
    for (std::size_t i = 0; i < rows_; ++i) {
      T* dst = data_.data() + i * keep;
      const T* src = data_.data() + i * cols_;
      std::memmove(dst, src, keep * sizeof(T));
    }
    cols_ = keep;
    data_.resize(rows_ * keep);
  }

  /// Writes this matrix's transpose into `out` (reusing its storage).
  void transposed_into(Matrix& out) const {
    out.assign_zero(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    }
  }

  Matrix& operator+=(const Matrix& other) {
    IMRDMD_REQUIRE_DIMS(rows_ == other.rows_ && cols_ == other.cols_,
                        "operator+= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
  }

  Matrix& operator-=(const Matrix& other) {
    IMRDMD_REQUIRE_DIMS(rows_ == other.rows_ && cols_ == other.cols_,
                        "operator-= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }

  Matrix& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T scalar) { return a *= scalar; }
  friend Matrix operator*(T scalar, Matrix a) { return a *= scalar; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, AlignedAllocator<T>> data_;
};

using Mat = Matrix<double>;
using CMat = Matrix<std::complex<double>>;
using Complex = std::complex<double>;

/// Widens a real matrix to complex.
CMat to_complex(const Mat& m);

/// Real part of a complex matrix.
Mat real_part(const CMat& m);

/// Element-wise |.| of a complex matrix.
Mat abs_part(const CMat& m);

}  // namespace imrdmd::linalg
