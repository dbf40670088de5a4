#include "analog/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

std::size_t at_index(int i) { return static_cast<std::size_t>(i); }

int as_int(std::size_t v) {
  SLDM_ASSERT(v <= static_cast<std::size_t>(std::numeric_limits<int>::max()));
  return static_cast<int>(v);
}

}  // namespace

CscMatrix::CscMatrix(int n, std::vector<std::pair<int, int>> entries)
    : n_(n), col_start_(at_index(n) + 1, 0) {
  SLDM_EXPECTS(n > 0);
  for (const auto& [r, c] : entries) {
    SLDM_EXPECTS(r >= 0 && r < n && c >= 0 && c < n);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) {
              return x.second != y.second ? x.second < y.second
                                          : x.first < y.first;
            });
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  row_index_.reserve(entries.size());
  for (const auto& [r, c] : entries) {
    row_index_.push_back(r);
    ++col_start_[at_index(c) + 1];
  }
  for (int c = 0; c < n; ++c) {
    col_start_[at_index(c) + 1] += col_start_[at_index(c)];
  }
  values_.assign(entries.size(), 0.0);
}

int CscMatrix::slot(int r, int c) const {
  SLDM_EXPECTS(r >= 0 && r < n_ && c >= 0 && c < n_);
  const int* begin = row_index_.data() + col_start_[at_index(c)];
  const int* end = row_index_.data() + col_start_[at_index(c) + 1];
  const int* it = std::lower_bound(begin, end, r);
  SLDM_EXPECTS(it != end && *it == r);
  return static_cast<int>(it - row_index_.data());
}

void CscMatrix::set_zero() { std::fill(values_.begin(), values_.end(), 0.0); }

void SparseLu::resize(int n) {
  if (n == n_) return;
  const std::size_t size = at_index(n);
  n_ = n;
  have_pivots_ = false;
  pivot_row_.assign(size, -1);
  step_of_row_.assign(size, -1);
  l_start_.assign(size + 1, 0);
  u_start_.assign(size + 1, 0);
  u_diag_.assign(size, 0.0);
  ut_start_.assign(size + 1, 0);
  x_.assign(size, 0.0);
  row_sum_.assign(size, 0.0);
  for (auto* v : {&mark_, &stack_, &steps_, &cands_, &position_, &row_at_}) {
    v->assign(size, 0);
  }
}

bool SparseLu::factor(const CscMatrix& a) {
  const int nnz = a.nonzeros();
  if (have_pivots_ && a.dimension() == n_ &&
      std::equal(a.col_start(), a.col_start() + n_ + 1, pattern_start_.begin()) &&
      std::equal(a.row_index(), a.row_index() + nnz, pattern_row_.begin()) &&
      refactor(a)) {
    ++refactors_;
    return true;
  }
  factor_fresh(a);
  return false;
}

int SparseLu::symbolic(const CscMatrix& a, int j, int& n_cands) {
  // Flood fill from A(:,j)'s rows through the columns of L computed so
  // far: a pivoted row r leads to the rows of L(:, step_of_row_[r]).
  const int* ap = a.col_start();
  const int* ai = a.row_index();
  const int* pinv = step_of_row_.data();
  const int* lp = l_start_.data();
  const int* li = l_row_.data();
  int* mark = mark_.data();
  int* stack = stack_.data();
  int* steps = steps_.data();
  int* cands = cands_.data();
  const int stamp = j + 1;
  int head = 0;
  int n_steps = 0;
  n_cands = 0;
  for (int p = ap[j]; p < ap[j + 1]; ++p) {
    if (mark[ai[p]] == stamp) continue;
    mark[ai[p]] = stamp;
    stack[head++] = ai[p];
  }
  while (head > 0) {
    const int r = stack[--head];
    const int k = pinv[r];
    if (k < 0) {
      cands[n_cands++] = r;
      continue;
    }
    steps[n_steps++] = k;
    for (int q = lp[k]; q < lp[k + 1]; ++q) {
      if (mark[li[q]] == stamp) continue;
      mark[li[q]] = stamp;
      stack[head++] = li[q];
    }
  }
  // Every edge runs from a lower step to a higher one, so ascending step
  // order is a topological order -- and it applies each entry's updates
  // in the same order as a dense right-looking elimination.
  std::sort(steps, steps + n_steps);
  return n_steps;
}

void SparseLu::factor_fresh(const CscMatrix& a) {
  resize(a.dimension());
  const int n = n_;
  ++fresh_;
  have_pivots_ = false;
  std::fill(step_of_row_.begin(), step_of_row_.end(), -1);
  std::fill(mark_.begin(), mark_.end(), 0);
  for (int i = 0; i < n; ++i) position_[at_index(i)] = row_at_[at_index(i)] = i;
  l_row_.clear();
  l_val_.clear();
  u_step_.clear();
  u_val_.clear();

  const int* ap = a.col_start();
  const int* ai = a.row_index();
  const double* ax = a.values();
  double* x = x_.data();
  int* pinv = step_of_row_.data();
  int* position = position_.data();
  int* row_at = row_at_.data();
  for (int j = 0; j < n; ++j) {
    int n_cands = 0;
    const int n_steps = symbolic(a, j, n_cands);
    for (int p = ap[j]; p < ap[j + 1]; ++p) x[ai[p]] = ax[p];
    // Left-looking update: U(k, j) for each reached step k in turn.
    for (int s = 0; s < n_steps; ++s) {
      const int k = steps_[at_index(s)];
      const int r = pivot_row_[at_index(k)];
      const double ukj = x[r];
      x[r] = 0.0;
      u_step_.push_back(k);
      u_val_.push_back(ukj);
      const int* li = l_row_.data();
      const double* lx = l_val_.data();
      for (int q = l_start_[at_index(k)]; q < l_start_[at_index(k) + 1]; ++q) {
        x[li[q]] -= lx[q] * ukj;
      }
    }
    // Partial pivoting: the largest candidate; a tie goes to the row a
    // dense elimination would meet first (its current position).
    int best = -1;
    double best_mag = 0.0;
    for (int c = 0; c < n_cands; ++c) {
      const int r = cands_[at_index(c)];
      const double mag = std::abs(x[r]);
      if (mag > best_mag ||
          (mag == best_mag && best >= 0 && position[r] < position[best])) {
        best = r;
        best_mag = mag;
      }
    }
    if (best < 0 || !std::isfinite(best_mag)) {
      for (int c = 0; c < n_cands; ++c) x[cands_[at_index(c)]] = 0.0;
      throw NumericalError("singular sparse matrix (column " +
                           std::to_string(j) + ")");
    }
    const double pivot = x[best];
    x[best] = 0.0;
    pivot_row_[at_index(j)] = best;
    pinv[best] = j;
    u_diag_[at_index(j)] = pivot;
    // The dense elimination's row swap, kept for its tie-breaking.
    const int displaced = row_at[j];
    row_at[position[best]] = displaced;
    position[displaced] = position[best];
    row_at[j] = best;
    position[best] = j;
    for (int c = 0; c < n_cands; ++c) {
      const int r = cands_[at_index(c)];
      if (r == best) continue;
      l_row_.push_back(r);
      l_val_.push_back(x[r] / pivot);
      x[r] = 0.0;
    }
    l_start_[at_index(j) + 1] = as_int(l_row_.size());
    u_start_[at_index(j) + 1] = as_int(u_step_.size());
  }
  build_row_view();
  pattern_start_.assign(a.col_start(), a.col_start() + n + 1);
  pattern_row_.assign(a.row_index(), a.row_index() + a.nonzeros());
  have_pivots_ = true;
}

void SparseLu::build_row_view() {
  // U by rows, columns ascending: back substitution then sums each row
  // in the order a dense back substitution does.
  const std::size_t n = at_index(n_);
  std::fill(ut_start_.begin(), ut_start_.end(), 0);
  for (int k : u_step_) ++ut_start_[at_index(k) + 1];
  for (std::size_t i = 0; i < n; ++i) ut_start_[i + 1] += ut_start_[i];
  ut_col_.resize(u_step_.size());
  ut_src_.resize(u_step_.size());
  std::copy(ut_start_.begin(), ut_start_.end() - 1, stack_.begin());
  for (int j = 0; j < n_; ++j) {
    for (int q = u_start_[at_index(j)]; q < u_start_[at_index(j) + 1]; ++q) {
      const int k = u_step_[at_index(q)];
      const std::size_t dst = at_index(stack_[at_index(k)]++);
      ut_col_[dst] = j;
      ut_src_[dst] = q;
    }
  }
}

bool SparseLu::refactor(const CscMatrix& a) {
  const int* ap = a.col_start();
  const int* ai = a.row_index();
  const double* ax = a.values();
  double* x = x_.data();
  const int* prow = pivot_row_.data();
  const int* lp = l_start_.data();
  const int* li = l_row_.data();
  double* lx = l_val_.data();
  const int* up = u_start_.data();
  const int* ui = u_step_.data();
  double* ux = u_val_.data();
  for (int j = 0; j < n_; ++j) {
    for (int p = ap[j]; p < ap[j + 1]; ++p) x[ai[p]] = ax[p];
    for (int q = up[j]; q < up[j + 1]; ++q) {
      const int k = ui[q];
      const double ukj = x[prow[k]];
      x[prow[k]] = 0.0;
      ux[q] = ukj;
      for (int p = lp[k]; p < lp[k + 1]; ++p) x[li[p]] -= lx[p] * ukj;
    }
    const double pivot = x[prow[j]];
    x[prow[j]] = 0.0;
    double largest = std::abs(pivot);
    for (int p = lp[j]; p < lp[j + 1]; ++p) {
      largest = std::max(largest, std::abs(x[li[p]]));
    }
    if (pivot == 0.0 || !std::isfinite(largest) ||
        !(std::abs(pivot) >= kPivotTolerance * largest)) {
      for (int p = lp[j]; p < lp[j + 1]; ++p) x[li[p]] = 0.0;
      return false;
    }
    u_diag_[at_index(j)] = pivot;
    for (int p = lp[j]; p < lp[j + 1]; ++p) {
      lx[p] = x[li[p]] / pivot;
      x[li[p]] = 0.0;
    }
  }
  return true;
}

void SparseLu::solve(const std::vector<double>& b, std::vector<double>& x) {
  SLDM_EXPECTS(have_pivots_);
  SLDM_EXPECTS(b.size() == at_index(n_) && x.size() == at_index(n_));
  double* w = x_.data();
  double* z = x.data();
  const int* prow = pivot_row_.data();
  const int* lp = l_start_.data();
  const int* li = l_row_.data();
  const double* lx = l_val_.data();
  std::copy(b.begin(), b.end(), x_.begin());
  // Forward substitution with the unit-diagonal L, by columns.
  for (int k = 0; k < n_; ++k) {
    const double zk = w[prow[k]];
    w[prow[k]] = 0.0;
    z[k] = zk;
    for (int p = lp[k]; p < lp[k + 1]; ++p) w[li[p]] -= lx[p] * zk;
  }
  // Back substitution with U, by rows.
  const int* tp = ut_start_.data();
  const int* tc = ut_col_.data();
  const int* ts = ut_src_.data();
  const double* ux = u_val_.data();
  const double* diag = u_diag_.data();
  for (int i = n_; i-- > 0;) {
    double v = z[i];
    for (int q = tp[i]; q < tp[i + 1]; ++q) v -= ux[ts[q]] * z[tc[q]];
    z[i] = v / diag[i];
  }
}

double SparseLu::relative_residual(const CscMatrix& a,
                                   const std::vector<double>& x,
                                   const std::vector<double>& b) {
  const int n = a.dimension();
  SLDM_EXPECTS(b.size() == at_index(n) && x.size() == at_index(n));
  resize(n);
  const int* ap = a.col_start();
  const int* ai = a.row_index();
  const double* ax = a.values();
  double* r = x_.data();
  double* sum = row_sum_.data();
  double x_norm = 0.0;
  bool finite = true;
  for (int j = 0; j < n; ++j) {
    const double xj = x[at_index(j)];
    finite = finite && std::isfinite(xj);
    x_norm = std::max(x_norm, std::abs(xj));
    for (int p = ap[j]; p < ap[j + 1]; ++p) {
      r[ai[p]] += ax[p] * xj;
      sum[ai[p]] += std::abs(ax[p]);
    }
  }
  double r_norm = 0.0, a_norm = 0.0, b_norm = 0.0;
  for (int i = 0; i < n; ++i) {
    const double bi = b[at_index(i)];
    const double ri = r[i] - bi;
    finite = finite && std::isfinite(ri) && std::isfinite(sum[i]);
    r_norm = std::max(r_norm, std::abs(ri));
    a_norm = std::max(a_norm, sum[i]);
    b_norm = std::max(b_norm, std::abs(bi));
    r[i] = 0.0;
    sum[i] = 0.0;
  }
  if (!finite) return std::numeric_limits<double>::infinity();
  const double scale = a_norm * x_norm + b_norm;
  return scale > 0.0 ? r_norm / scale : r_norm;
}

void SparseLu::solve_checked(const CscMatrix& a, const std::vector<double>& b,
                             std::vector<double>& x) {
  const bool reused = factor(a);
  solve(b, x);
  double residual = relative_residual(a, x, b);
  if (residual <= kResidualTolerance) return;
  if (reused) {
    factor_fresh(a);
    solve(b, x);
    residual = relative_residual(a, x, b);
    if (residual <= kResidualTolerance) return;
  }
  throw NumericalError("sparse solve residual " + std::to_string(residual) +
                       " above the bound");
}

}  // namespace sldm
