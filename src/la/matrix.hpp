#pragma once
// Dense column-major matrix. Column-major is chosen to match the
// plane-wave layout used throughout (a wavefunction block is an Ng x Nband
// matrix whose columns are orbitals, exactly PWDFT's storage).

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ptim::la {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t i, size_t j) { return data_[i + j * rows_]; }
  const T& operator()(size_t i, size_t j) const { return data_[i + j * rows_]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T* col(size_t j) { return data_.data() + j * rows_; }
  const T* col(size_t j) const { return data_.data() + j * rows_; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }
  void resize(size_t rows, size_t cols, T fill = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  Matrix conj_transpose() const {
    Matrix out(cols_, rows_);
    for (size_t j = 0; j < cols_; ++j)
      for (size_t i = 0; i < rows_; ++i) {
        if constexpr (std::is_same_v<T, cplx> || std::is_same_v<T, cplxf>)
          out(j, i) = std::conj((*this)(i, j));
        else
          out(j, i) = (*this)(i, j);
      }
    return out;
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_ = 0, cols_ = 0;
  std::vector<T> data_;
};

// A complex array as interleaved (re, im) doubles: the layout std::complex
// guarantees, and the one the la lanes (la/simd.hpp) take.
inline const double* as_doubles(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* as_doubles(cplx* p) { return reinterpret_cast<double*>(p); }

using MatC = Matrix<cplx>;
using MatR = Matrix<real_t>;
// Single-precision complex block: the down-converted-at-the-edge buffers of
// the FP32 exchange pipeline (pair densities, circulated real-space slabs).
using MatCf = Matrix<cplxf>;

}  // namespace ptim::la
