// Sparse LU for the MNA system, over a pattern fixed once per circuit.
//
// A circuit's topology fixes which Jacobian entries can be nonzero, so
// the transient engine builds one CscMatrix per circuit and every Newton
// iteration only writes numbers into precomputed slots.  SparseLu is a
// left-looking Gilbert-Peierls factorization (the shape of CSparse's
// cs_lu) with partial pivoting in natural column order.  The first
// factorization fixes the pivot sequence and the L/U patterns; later
// ones refactor numerically in that order, as KLU's refactor does, and
// fall back to a fresh pivot search when a reused pivot falls below
// kPivotTolerance of its column's largest candidate.  solve_checked()
// adds a residual check on every solve.
//
// Indices are int, as in CSparse; the hot loops index through raw
// pointers into the owned arrays.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sldm {

/// A reused pivot must be at least this fraction of the largest
/// magnitude among its column's candidate rows; a smaller one makes
/// SparseLu::factor re-pivot from scratch.  A fresh factorization always
/// takes the largest candidate (plain partial pivoting).
inline constexpr double kPivotTolerance = 0.1;

/// Bound on the normwise relative residual
/// ||A x - b|| / (||A|| ||x|| + ||b||) (infinity norms) that
/// SparseLu::solve_checked accepts.
inline constexpr double kResidualTolerance = 1e-10;

/// A square matrix with a fixed compressed-sparse-column pattern.
class CscMatrix {
 public:
  /// An n x n matrix whose pattern is the given (row, column) entries;
  /// duplicates merge.  Every value starts at zero.
  CscMatrix(int n, std::vector<std::pair<int, int>> entries);

  int dimension() const { return n_; }
  int nonzeros() const { return col_start_.back(); }

  /// Position in values() of entry (r, c), by binary search: meant for
  /// building slot tables once, not for assembly loops.
  /// Precondition: (r, c) is in the pattern.
  int slot(int r, int c) const;

  /// Adds `v` to entry (r, c).  Precondition: (r, c) is in the pattern.
  void add(int r, int c, double v) { values_[index(slot(r, c))] += v; }

  /// Zeroes every value; the pattern stays.
  void set_zero();

  /// Values in pattern order; an assembly adds into values()[slot].
  double* values() { return values_.data(); }
  const double* values() const { return values_.data(); }
  /// Column c's entries are [col_start()[c], col_start()[c + 1]), rows
  /// ascending in row_index().
  const int* col_start() const { return col_start_.data(); }
  const int* row_index() const { return row_index_.data(); }

 private:
  static std::size_t index(int i) { return static_cast<std::size_t>(i); }

  int n_;
  std::vector<int> col_start_;
  std::vector<int> row_index_;
  std::vector<double> values_;
};

/// LU factorization P A = L U of a CscMatrix; L has a unit diagonal.
/// Every work array is owned, so repeated factor/solve calls on one
/// pattern allocate only while the factors grow past their high-water
/// mark.
class SparseLu {
 public:
  /// Factors `a`.  Once a pivot sequence exists for a's pattern, this
  /// refactors in that sequence; a reused pivot below kPivotTolerance
  /// of its column's largest candidate makes it re-pivot from scratch.
  /// Returns true if the previous sequence was reused.  Throws
  /// NumericalError if `a` is singular to working precision.
  bool factor(const CscMatrix& a);

  /// Solves A x = b with the current factors.
  /// Precondition: b.size() == x.size() == the factored dimension.
  void solve(const std::vector<double>& b, std::vector<double>& x);

  /// Factors `a`, solves A x = b, and checks the relative residual
  /// against kResidualTolerance.  A refactor that fails the check is
  /// redone with a fresh pivot search; a fresh factorization that fails
  /// it throws NumericalError.
  void solve_checked(const CscMatrix& a, const std::vector<double>& b,
                     std::vector<double>& x);

  /// ||A x - b|| / (||A|| ||x|| + ||b||) in the infinity norm, in one
  /// pass over a's entries; +inf if anything is not finite.
  double relative_residual(const CscMatrix& a, const std::vector<double>& x,
                           const std::vector<double>& b);

  /// Stored entries of L and U, unit diagonal excluded.
  std::size_t factor_nonzeros() const {
    return l_row_.size() + u_step_.size() + u_diag_.size();
  }
  std::size_t fresh_factorizations() const { return fresh_; }
  std::size_t refactorizations() const { return refactors_; }

 private:
  void resize(int n);
  /// Factors `a` with a fresh partial-pivoting pass.
  void factor_fresh(const CscMatrix& a);
  bool refactor(const CscMatrix& a);
  /// Column j's reach: fills steps_ (ascending) and cands_ (the rows
  /// not yet pivoted); returns the step count.
  int symbolic(const CscMatrix& a, int j, int& n_cands);
  void build_row_view();

  int n_ = 0;
  bool have_pivots_ = false;
  std::size_t fresh_ = 0;
  std::size_t refactors_ = 0;

  // Pivot sequence: step k eliminates original row pivot_row_[k];
  // step_of_row_[r] is the inverse (-1 while row r is not yet pivoted).
  std::vector<int> pivot_row_, step_of_row_;
  // L by column: original row indices, the unit diagonal left out.
  std::vector<int> l_start_, l_row_;
  std::vector<double> l_val_;
  // U by column: step indices in ascending order, the diagonal apart.
  std::vector<int> u_start_, u_step_;
  std::vector<double> u_val_, u_diag_;
  // U by row for back substitution: columns ascending, and each entry's
  // index into u_val_.
  std::vector<int> ut_start_, ut_col_, ut_src_;
  // The pattern the pivot sequence belongs to.
  std::vector<int> pattern_start_, pattern_row_;

  // Work arrays; x_ and row_sum_ are all-zero between uses.
  std::vector<double> x_, row_sum_;
  std::vector<int> mark_, stack_, steps_, cands_, position_, row_at_;
};

}  // namespace sldm
