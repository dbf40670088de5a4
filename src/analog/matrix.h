// Dense linear algebra: a row-major matrix and an LU with partial
// pivoting.
//
// The transient engine solves its Newton systems with the sparse LU of
// analog/sparse.h.  This dense kernel is the reference the sparse tests
// compare against, and the solver of the small Laplacians in
// rc/resistive_network.h.
#pragma once

#include <cstddef>
#include <vector>

namespace sldm {

/// A dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Sets every entry to zero without changing the shape.
  void set_zero();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
///
/// Usage: LuFactorization lu(a); x = lu.solve(b);
/// Throws NumericalError if the matrix is singular to working precision.
class LuFactorization {
 public:
  /// Factors `a` (copied; `a` itself is not modified).
  /// Precondition: a.rows() == a.cols() > 0.
  explicit LuFactorization(const Matrix& a);

  /// Solves A x = b.  Precondition: b.size() == dimension.
  std::vector<double> solve(const std::vector<double>& b) const;

  std::size_t dimension() const { return lu_.rows(); }

  /// An estimate of the smallest pivot magnitude relative to the largest;
  /// useful for conditioning diagnostics in tests.
  double min_pivot_ratio() const { return min_pivot_ratio_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  double min_pivot_ratio_ = 0.0;
};

/// Convenience: solves A x = b in one call.
std::vector<double> solve_dense(const Matrix& a, const std::vector<double>& b);

}  // namespace sldm
