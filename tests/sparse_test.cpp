// Tests for the fixed-pattern sparse LU: residuals on random systems
// that pivot, refactoring in a reused pivot sequence, and the transient
// engine's DC operating point against a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <tuple>

#include "analog/elaborate.h"
#include "analog/matrix.h"
#include "analog/sparse.h"
#include "analog/transient.h"
#include "gen/generators.h"
#include "tech/tech.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

/// A square system given by its (row, column, value) entries.
struct System {
  int n = 0;
  std::vector<std::tuple<int, int, double>> entries;
  std::vector<double> b;

  CscMatrix matrix() const {
    std::vector<std::pair<int, int>> pattern;
    for (const auto& [r, c, v] : entries) pattern.emplace_back(r, c);
    CscMatrix a(n, pattern);
    for (const auto& [r, c, v] : entries) a.add(r, c, v);
    return a;
  }

  Matrix dense() const {
    const auto size = static_cast<std::size_t>(n);
    Matrix a(size, size);
    for (const auto& [r, c, v] : entries) {
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
    }
    return a;
  }

  /// ||A x - b|| / (||A|| ||x|| + ||b||), infinity norms, computed
  /// densely and independently of the solver.
  double relative_residual(const std::vector<double>& x) const {
    const Matrix a = dense();
    double r_norm = 0.0, a_norm = 0.0, x_norm = 0.0, b_norm = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      double r = -b[i], row = 0.0;
      for (std::size_t j = 0; j < a.cols(); ++j) {
        r += a(i, j) * x[j];
        row += std::abs(a(i, j));
      }
      r_norm = std::max(r_norm, std::abs(r));
      a_norm = std::max(a_norm, row);
      x_norm = std::max(x_norm, std::abs(x[i]));
      b_norm = std::max(b_norm, std::abs(b[i]));
    }
    return r_norm / (a_norm * x_norm + b_norm);
  }

  /// Structural rank deficiency by bipartite matching: with continuous
  /// random values, the only singular draws.
  bool structurally_singular() const {
    const auto size = static_cast<std::size_t>(n);
    std::vector<std::vector<int>> cols_of(size);
    for (const auto& [r, c, v] : entries) {
      cols_of[static_cast<std::size_t>(r)].push_back(c);
    }
    std::vector<int> row_of_col(size, -1);
    for (int r = 0; r < n; ++r) {
      std::vector<bool> seen(size, false);
      const auto augment = [&](auto&& self, int row) -> bool {
        for (int c : cols_of[static_cast<std::size_t>(row)]) {
          const auto cc = static_cast<std::size_t>(c);
          if (seen[cc]) continue;
          seen[cc] = true;
          if (row_of_col[cc] < 0 || self(self, row_of_col[cc])) {
            row_of_col[cc] = row;
            return true;
          }
        }
        return false;
      };
      if (!augment(augment, r)) return true;
    }
    return false;
  }
};

/// Unsymmetric systems of 3-8 unknowns with about half the entries set:
/// partial pivoting swaps rows throughout the elimination.
std::vector<System> random_pivoting_systems() {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<int> size(3, 8);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::bernoulli_distribution present(0.5);
  std::vector<System> out;
  for (int draw = 0; draw < 200; ++draw) {
    System s;
    s.n = size(rng);
    for (int r = 0; r < s.n; ++r) {
      for (int c = 0; c < s.n; ++c) {
        if (present(rng)) s.entries.emplace_back(r, c, val(rng));
      }
    }
    for (int i = 0; i < s.n; ++i) s.b.push_back(val(rng));
    out.push_back(std::move(s));
  }
  return out;
}

/// Sparse diagonally dominant systems of 10-101 unknowns (about 4
/// off-diagonal entries per row): these never pivot.
std::vector<System> dominant_systems() {
  std::vector<System> out;
  for (int k = 0; k < 8; ++k) {
    System s;
    s.n = 10 + k * 13;
    std::mt19937_64 rng(static_cast<std::uint64_t>(s.n) * 2654435761u);
    std::uniform_real_distribution<double> val(-2.0, 2.0);
    std::uniform_int_distribution<int> col(0, s.n - 1);
    for (int r = 0; r < s.n; ++r) {
      double row_sum = 0.0;
      for (int e = 0; e < 4; ++e) {
        const int c = col(rng);
        if (c == r) continue;
        const double v = val(rng);
        s.entries.emplace_back(r, c, v);
        row_sum += std::abs(v);
      }
      s.entries.emplace_back(r, r, row_sum + 1.0);
    }
    for (int i = 0; i < s.n; ++i) s.b.push_back(val(rng));
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> solve(const System& s) {
  SparseLu lu;
  std::vector<double> x(static_cast<std::size_t>(s.n));
  lu.solve_checked(s.matrix(), s.b, x);
  return x;
}

TEST(CscMatrix, PatternSlotsAndValues) {
  CscMatrix m(3, {{0, 0}, {2, 1}, {0, 0}, {1, 1}, {0, 2}});
  EXPECT_EQ(m.dimension(), 3);
  EXPECT_EQ(m.nonzeros(), 4);  // the duplicate (0, 0) merges
  // Columns hold their rows in ascending order.
  EXPECT_EQ(m.slot(0, 0), 0);
  EXPECT_EQ(m.slot(1, 1), 1);
  EXPECT_EQ(m.slot(2, 1), 2);
  EXPECT_EQ(m.slot(0, 2), 3);
  m.add(0, 0, 2.0);
  m.add(0, 0, 1.0);  // accumulates
  m.add(2, 1, -4.0);
  m.values()[m.slot(0, 2)] += 5.0;
  EXPECT_EQ(std::vector<double>(m.values(), m.values() + 4),
            (std::vector<double>{3.0, 0.0, -4.0, 5.0}));
  m.set_zero();
  EXPECT_EQ(std::vector<double>(m.values(), m.values() + 4),
            std::vector<double>(4, 0.0));
  EXPECT_THROW((void)m.slot(1, 0), ContractViolation);  // outside the pattern
  EXPECT_THROW(m.add(3, 0, 1.0), ContractViolation);
  EXPECT_THROW(CscMatrix(2, {{0, 2}}), ContractViolation);
}

TEST(SparseLu, SolvesKnownSystem) {
  const System s{2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}},
                 {5.0, 10.0}};
  const auto x = solve(s);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, PivotsThroughZeroDiagonal) {
  const System s{2, {{0, 1, 1.0}, {1, 0, 1.0}}, {3.0, 7.0}};
  const auto x = solve(s);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
  const System rank_one{
      2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 4.0}}, {1.0, 1.0}};
  EXPECT_THROW(solve(rank_one), NumericalError);
  SparseLu lu;
  EXPECT_THROW(lu.factor(CscMatrix(3, {})), NumericalError);
  // A failed factorization leaves the object usable.
  const System diagonal{3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 8.0}},
                        {2.0, 4.0, 8.0}};
  std::vector<double> x(3);
  lu.solve_checked(diagonal.matrix(), diagonal.b, x);
  EXPECT_EQ(x, (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(SparseLu, FillInReported) {
  System s{3, {}, {1.0, 1.0, 1.0}};
  for (int i = 0; i < 3; ++i) s.entries.emplace_back(i, i, 2.0);
  s.entries.emplace_back(0, 2, 1.0);
  s.entries.emplace_back(2, 0, 1.0);
  SparseLu lu;
  lu.factor(s.matrix());
  EXPECT_GE(lu.factor_nonzeros(), 5u);
}

// Every nonsingular draw -- the random pivoting systems and the
// diagonally dominant ones -- solves to a small residual; every
// structurally singular draw is refused by name.
TEST(SparseLu, ResidualOnPivotingAndDominantSystems) {
  std::vector<System> systems = random_pivoting_systems();
  const std::size_t random_count = systems.size();
  for (System& s : dominant_systems()) systems.push_back(std::move(s));
  std::size_t nonsingular = 0;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const System& s = systems[i];
    if (s.structurally_singular()) {
      EXPECT_THROW(solve(s), NumericalError) << "draw " << i;
      continue;
    }
    ++nonsingular;
    std::vector<double> x;
    ASSERT_NO_THROW(x = solve(s)) << "draw " << i;
    EXPECT_LE(s.relative_residual(x), 1e-10) << "draw " << i << " n=" << s.n;
    // A fresh factorization picks the dense elimination's pivots and
    // applies every update in its order: the answers agree to the bit.
    EXPECT_EQ(x, LuFactorization(s.dense()).solve(s.b)) << "draw " << i;
  }
  EXPECT_GT(nonsingular, random_count / 2);
  EXPECT_LT(nonsingular, systems.size());
}

TEST(SparseLu, RefactorReusesPivotsAndRepivotsWhenOneCollapses) {
  // Column 0 pivots on row 0 while that entry is large.
  System s{3,
           {{0, 0, 4.0}, {1, 0, 1.0}, {2, 0, 0.5}, {0, 1, 1.0}, {1, 1, 3.0},
            {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 2.0}},
           {1.0, 2.0, 3.0}};
  CscMatrix a = s.matrix();
  SparseLu lu;
  std::vector<double> x(3);
  EXPECT_FALSE(lu.factor(a));
  EXPECT_EQ(lu.fresh_factorizations(), 1u);

  // A mild change keeps the pivot sequence: a numeric refactor.
  a.add(0, 0, 1.0);
  std::get<2>(s.entries[0]) += 1.0;
  EXPECT_TRUE(lu.factor(a));
  EXPECT_EQ(lu.refactorizations(), 1u);
  lu.solve(s.b, x);
  EXPECT_LE(s.relative_residual(x), 1e-12);

  // Row 0's pivot collapses: the refactor refuses it and re-pivots.
  a.add(0, 0, -5.0 + 1e-13);
  std::get<2>(s.entries[0]) += -5.0 + 1e-13;
  EXPECT_FALSE(lu.factor(a));
  EXPECT_EQ(lu.fresh_factorizations(), 2u);
  lu.solve(s.b, x);
  EXPECT_LE(s.relative_residual(x), 1e-10);
  lu.solve_checked(a, s.b, x);
  EXPECT_LE(s.relative_residual(x), 1e-10);
  EXPECT_LE(lu.relative_residual(a, x, s.b), 1e-10);
}

TEST(SparseLu, ReportsNonFiniteResidual) {
  const System s{1, {{0, 0, 1.0}}, {1.0}};
  SparseLu lu;
  const std::vector<double> x{std::nan("")};
  EXPECT_TRUE(std::isinf(lu.relative_residual(s.matrix(), x, s.b)));
}

/// One dense Newton iteration of the DC MNA equations at `v` (the
/// engine's element stamps and 1e-12 S gmin, assembled densely and
/// solved with LuFactorization); returns the updated node voltages.
std::vector<Volts> dense_newton_step(const Circuit& c,
                                     const std::vector<Volts>& v,
                                     std::vector<double>& branch) {
  const std::size_t nodes = c.node_count();
  const std::size_t n = nodes - 1 + c.vsources().size();
  Matrix jac(n, n);
  std::vector<double> f(n, 0.0);
  const auto stamp = [&](AnalogNode at, AnalogNode wrt, double g) {
    if (at != kGround && wrt != kGround) jac(at - 1, wrt - 1) += g;
  };
  const auto current = [&](AnalogNode at, double i) {
    if (at != kGround) f[at - 1] += i;
  };
  for (AnalogNode node = 1; node < nodes; ++node) {
    stamp(node, node, 1e-12);
    current(node, 1e-12 * v[node]);
  }
  for (const Resistor& r : c.resistors()) {
    const double g = 1.0 / r.resistance;
    current(r.a, g * (v[r.a] - v[r.b]));
    current(r.b, -g * (v[r.a] - v[r.b]));
    stamp(r.a, r.a, g);
    stamp(r.a, r.b, -g);
    stamp(r.b, r.a, -g);
    stamp(r.b, r.b, g);
  }
  for (const Mosfet& m : c.mosfets()) {
    const MosfetOp op = eval_mosfet(m, v[m.drain], v[m.gate], v[m.source]);
    current(m.drain, op.id);
    current(m.source, -op.id);
    stamp(m.drain, m.drain, op.d_vd);
    stamp(m.drain, m.gate, op.d_vg);
    stamp(m.drain, m.source, op.d_vs);
    stamp(m.source, m.drain, -op.d_vd);
    stamp(m.source, m.gate, -op.d_vg);
    stamp(m.source, m.source, -op.d_vs);
  }
  for (std::size_t k = 0; k < c.vsources().size(); ++k) {
    const VSource& src = c.vsources()[k];
    const std::size_t br = nodes - 1 + k;
    current(src.pos, branch[k]);
    current(src.neg, -branch[k]);
    if (src.pos != kGround) jac(src.pos - 1, br) += 1.0;
    if (src.neg != kGround) jac(src.neg - 1, br) -= 1.0;
    f[br] = v[src.pos] - v[src.neg] - src.value.at(0.0);
    if (src.pos != kGround) jac(br, src.pos - 1) += 1.0;
    if (src.neg != kGround) jac(br, src.neg - 1) -= 1.0;
  }
  for (double& fi : f) fi = -fi;
  const std::vector<double> delta = LuFactorization(jac).solve(f);
  std::vector<Volts> out = v;
  for (AnalogNode node = 1; node < nodes; ++node) out[node] += delta[node - 1];
  for (std::size_t k = 0; k < branch.size(); ++k) {
    branch[k] += delta[nodes - 1 + k];
  }
  return out;
}

TEST(SparseDc, DeepNmosChainMatchesDenseReference) {
  // The 64-stage fanout-4 nMOS chain: the old map-per-row kernel lost
  // multipliers on row swaps and failed this DC solve outright.
  const Tech tech = nmos4();
  const GeneratedCircuit g = inverter_chain(Style::kNmos, 64, 4);
  std::vector<Stimulus> stimuli{{g.input, PwlSource::dc(0.0)}};
  for (NodeId n : g.high_inputs) stimuli.push_back({n, PwlSource::dc(tech.vdd())});
  for (NodeId n : g.low_inputs) stimuli.push_back({n, PwlSource::dc(0.0)});
  const Elaboration e = elaborate(g.netlist, tech, stimuli);
  const Circuit& c = e.circuit();
  ASSERT_GT(c.node_count() - 1 + c.vsources().size(), 100u);

  const std::vector<Volts> v = dc_operating_point(c);
  // Dense Newton from the sparse answer stays on it: the answer is the
  // dense reference's root.
  std::vector<double> branch(c.vsources().size(), 0.0);
  std::vector<Volts> ref = v;
  for (int iter = 0; iter < 6; ++iter) ref = dense_newton_step(c, ref, branch);
  double worst = 0.0;
  for (AnalogNode n = 1; n < c.node_count(); ++n) {
    worst = std::max(worst, std::abs(v[n] - ref[n]));
  }
  EXPECT_LE(worst, 1e-9);
}

TEST(SparseTransient, SmallAndLargeCircuitsShareOneSolver) {
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
  for (int i = 0; i < 150; ++i) {
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
