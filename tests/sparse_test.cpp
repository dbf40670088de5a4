// Tests for the sparse LU solver, including equivalence with the dense
// kernel on random systems and inside the transient engine.
#include <gtest/gtest.h>

#include <random>

#include "analog/matrix.h"
#include "analog/sparse.h"
#include "analog/transient.h"
#include "util/contracts.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {
namespace {

TEST(SparseMatrix, AssemblyAndAccess) {
  SparseMatrix m(3);
  EXPECT_EQ(m.dimension(), 3u);
  m.add(0, 0, 2.0);
  m.add(0, 0, 1.0);  // accumulates
  m.add(2, 1, -4.0);
  m.add(1, 1, 0.0);  // explicit zero is not stored
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), -4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.nonzeros(), 2u);
  m.set_zero();
  EXPECT_EQ(m.nonzeros(), 0u);
  EXPECT_THROW(m.add(3, 0, 1.0), ContractViolation);
}

TEST(SparseLu, SolvesKnownSystem) {
  SparseMatrix a(2);
  a.add(0, 0, 2.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 3.0);
  const auto x = SparseLu(a).solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, PivotsThroughZeroDiagonal) {
  SparseMatrix a(2);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  const auto x = SparseLu(a).solve({3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
  SparseMatrix a(2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 4.0);
  EXPECT_THROW(SparseLu lu(a), NumericalError);
  SparseMatrix empty(3);
  EXPECT_THROW(SparseLu lu2(empty), NumericalError);
}

TEST(SparseLu, FillInReported) {
  SparseMatrix a(3);
  for (std::size_t i = 0; i < 3; ++i) a.add(i, i, 2.0);
  a.add(0, 2, 1.0);
  a.add(2, 0, 1.0);
  const SparseLu lu(a);
  EXPECT_GE(lu.factor_nonzeros(), 5u);
}

// Property: sparse and dense solutions agree on random sparse
// diagonally dominant systems.
class SparseDenseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseEquivalence, SolutionsMatch) {
  const int n = 10 + GetParam() * 13;
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 2654435761u);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_int_distribution<std::size_t> col(
      0, static_cast<std::size_t>(n) - 1);

  Matrix dense(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  SparseMatrix sparse(static_cast<std::size_t>(n));
  // ~4 off-diagonal entries per row + dominant diagonal.
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t c = col(rng);
      if (c == r) continue;
      const double v = val(rng);
      dense(r, c) += v;
      sparse.add(r, c, v);
      row_sum += std::abs(v);
    }
    const double d = row_sum + 1.0;
    dense(r, r) += d;
    sparse.add(r, r, d);
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = val(rng);

  const auto xd = LuFactorization(dense).solve(b);
  const auto xs = SparseLu(sparse).solve(b);
  for (std::size_t i = 0; i < xd.size(); ++i) {
    EXPECT_NEAR(xs[i], xd[i], 1e-9) << "i=" << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseDenseEquivalence,
                         ::testing::Range(0, 8));

TEST(SparseTransient, MatchesDenseWaveforms) {
  // The same RC ladder integrated with both kernels must produce the
  // same waveform to solver tolerance.
  Circuit c;
  const AnalogNode in = c.add_node("in");
  c.add_vsource(in, kGround, PwlSource::edge(0.0, 1.0, 1e-9, 1e-12));
  AnalogNode prev = in;
  std::vector<AnalogNode> nodes;
  for (int i = 0; i < 6; ++i) {
    const AnalogNode n = c.add_node(format("n%d", i));
    c.add_resistor(prev, n, 2e3);
    c.add_capacitor(n, kGround, 50e-15);
    nodes.push_back(n);
    prev = n;
  }
  TransientOptions dense_opt;
  dense_opt.t_stop = 10e-9;
  dense_opt.matrix = MatrixKind::kDense;
  TransientOptions sparse_opt = dense_opt;
  sparse_opt.matrix = MatrixKind::kSparse;

  const TransientResult rd = simulate(c, dense_opt);
  const TransientResult rs = simulate(c, sparse_opt);
  for (AnalogNode n : nodes) {
    for (double t_ns : {1.0, 2.0, 4.0, 8.0}) {
      EXPECT_NEAR(rs.at(n).at(t_ns * 1e-9), rd.at(n).at(t_ns * 1e-9), 1e-4)
          << "node " << n << " t " << t_ns;
    }
  }
}

TEST(SparseTransient, AutoSelectsByProblemSize) {
  // Behavioral check: kAuto must work on both a tiny and a larger
  // circuit (the selection itself is internal; this pins the plumbing).
  Circuit small;
  const AnalogNode a = small.add_node("a");
  small.add_vsource(a, kGround, PwlSource::dc(1.0));
  const AnalogNode b = small.add_node("b");
  small.add_resistor(a, b, 1e3);
  small.add_capacitor(b, kGround, 1e-15);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  EXPECT_NO_THROW(simulate(small, opt));

  Circuit big;
  const AnalogNode src = big.add_node("src");
  big.add_vsource(src, kGround, PwlSource::edge(0.0, 1.0, 1e-10, 1e-12));
  AnalogNode prev = src;
  for (int i = 0; i < 150; ++i) {  // > auto threshold unknowns
    const AnalogNode n = big.add_node();
    big.add_resistor(prev, n, 1e3);
    big.add_capacitor(n, kGround, 5e-15);
    prev = n;
  }
  TransientOptions opt2;
  opt2.t_stop = 2e-9;
  const TransientResult r = simulate(big, opt2);
  EXPECT_GT(r.at(prev).value(r.at(prev).size() - 1), -0.01);
}

}  // namespace
}  // namespace sldm
