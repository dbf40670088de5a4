#include "analog/transient.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "analog/sparse.h"
#include "util/contracts.h"
#include "util/error.h"

namespace sldm {
namespace {

/// Conductance from every node to ground, for numerical robustness with
/// momentarily floating nodes (all switches off).
constexpr double kGmin = 1e-12;

/// Integration method for the capacitor companion model.
enum class Method { kBackwardEuler, kTrapezoidal };

/// Per-capacitor dynamic state carried between time points.
struct CapState {
  Volts v_prev = 0.0;    ///< capacitor voltage at the last accepted point
  Amperes i_prev = 0.0;  ///< capacitor current at the last accepted point
};

/// Newton stops only when, besides the step test, the KCL residual
/// assembled at the iterate the last step starts from is within this
/// current on every node row.  That residual is the Jacobian times a step
/// that already passed the voltage test, so it comes near the bound only
/// on rows with a large companion conductance 2C/h (tiny steps): the
/// calibration runs converge with at most 1-10 uA there.  The bound sits
/// above that, leaving every converged answer as it was, and refuses an
/// iterate whose step is small while its currents are far from balanced.
constexpr Amperes kNewtonCurrentTol = 1e-5;

int unknown_of(AnalogNode node) {
  return node == kGround ? -1 : static_cast<int>(node - 1);
}

/// Assembles and solves the MNA system.  The Jacobian's pattern and every
/// element's slots in it are fixed at construction; an assembly only adds
/// numbers into those slots.
class Solver {
 public:
  Solver(const Circuit& circuit, const TransientOptions& options)
      : circuit_(circuit),
        options_(options),
        n_nodes_(circuit.node_count()),
        n_unknowns_(circuit.node_count() - 1 + circuit.vsources().size()),
        jac_(jacobian_pattern(circuit, slots_)),
        f_(n_unknowns_),
        rhs_(n_unknowns_),
        delta_(n_unknowns_),
        u_(n_unknowns_) {
    SLDM_EXPECTS(circuit.node_count() > 1);
  }

  std::size_t unknown_count() const { return n_unknowns_; }

  /// Newton-solves the circuit equations at time `t`.
  ///
  /// `x` holds node voltages (entry per node, ground included and pinned
  /// to 0) and is updated in place on success.  `branch` receives source
  /// branch currents.  In transient mode (`with_caps`), capacitor
  /// companions use step `h` from `states`.  `source_scale` scales all
  /// source values (used for DC continuation).
  /// Returns the number of Newton iterations, or -1 on divergence.
  int newton(std::vector<Volts>& x, std::vector<Amperes>& branch, Seconds t,
             bool with_caps, Method method, Seconds h,
             const std::vector<CapState>& states, double source_scale,
             double gmin = kGmin) {
    const std::size_t n = n_unknowns_;
    const std::size_t n_voltages = n_nodes_ - 1;
    pack(x, branch, u_);

    for (int iter = 1; iter <= options_.newton_max_iter; ++iter) {
      jac_.set_zero();
      std::fill(f_.begin(), f_.end(), 0.0);
      assemble(u_, t, with_caps, method, h, states, source_scale, gmin);

      for (std::size_t i = 0; i < n; ++i) rhs_[i] = -f_[i];
      try {
        lu_.solve_checked(jac_, rhs_, delta_);
      } catch (const NumericalError&) {
        return -1;
      }

      double max_dv = 0.0;
      for (std::size_t i = 0; i < n_voltages; ++i) {
        max_dv = std::max(max_dv, std::abs(delta_[i]));
      }
      // Damp: limit the voltage update magnitude per iteration.
      double scale = 1.0;
      if (max_dv > options_.newton_damping) {
        scale = options_.newton_damping / max_dv;
      }
      bool converged = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double step = scale * delta_[i];
        u_[i] += step;
        if (!std::isfinite(u_[i])) return -1;
        const bool is_voltage = i < n_voltages;
        const double tol =
            is_voltage
                ? options_.newton_abstol +
                      options_.newton_reltol * std::abs(u_[i])
                : 1e-9 + options_.newton_reltol * std::abs(u_[i]);
        if (std::abs(step) > tol) converged = false;
      }
      for (std::size_t i = 0; converged && i < n_voltages; ++i) {
        if (!(std::abs(f_[i]) <= kNewtonCurrentTol)) converged = false;
      }
      if (converged && scale == 1.0 && iter >= 2) {
        unpack(u_, x, branch);
        return iter;
      }
    }
    return -1;
  }

  /// Capacitor voltage from a node-voltage vector.
  static Volts cap_voltage(const Capacitor& c, const std::vector<Volts>& x) {
    return x[c.a] - x[c.b];
  }

 private:
  /// The Jacobian's pattern: every entry the assembly can touch, in
  /// assembly order -- the gmin diagonal, 4 per resistor, 4 per
  /// capacitor, 6 per MOSFET and 4 per voltage source.  `slots` receives
  /// each stamp site's index into the values, -1 on a ground row or
  /// column.
  static CscMatrix jacobian_pattern(const Circuit& c, std::vector<int>& slots) {
    std::vector<std::pair<int, int>> sites;
    const auto two_terminal = [&](AnalogNode a, AnalogNode b) {
      const int ia = unknown_of(a), ib = unknown_of(b);
      sites.insert(sites.end(), {{ia, ia}, {ia, ib}, {ib, ia}, {ib, ib}});
    };
    for (AnalogNode node = 1; node < c.node_count(); ++node) {
      sites.emplace_back(unknown_of(node), unknown_of(node));
    }
    for (const Resistor& r : c.resistors()) two_terminal(r.a, r.b);
    for (const Capacitor& cap : c.capacitors()) two_terminal(cap.a, cap.b);
    for (const Mosfet& m : c.mosfets()) {
      const int d = unknown_of(m.drain), g = unknown_of(m.gate),
                s = unknown_of(m.source);
      sites.insert(sites.end(), {{d, d}, {d, g}, {d, s}, {s, d}, {s, g}, {s, s}});
    }
    for (std::size_t k = 0; k < c.vsources().size(); ++k) {
      const VSource& src = c.vsources()[k];
      const int br = static_cast<int>(c.node_count() - 1 + k);
      const int pos = unknown_of(src.pos), neg = unknown_of(src.neg);
      sites.insert(sites.end(), {{pos, br}, {neg, br}, {br, pos}, {br, neg}});
    }
    std::vector<std::pair<int, int>> entries;
    for (const auto& [r, col] : sites) {
      if (r >= 0 && col >= 0) entries.emplace_back(r, col);
    }
    CscMatrix m(static_cast<int>(c.node_count() - 1 + c.vsources().size()),
                std::move(entries));
    slots.clear();
    for (const auto& [r, col] : sites) {
      slots.push_back(r < 0 || col < 0 ? -1 : m.slot(r, col));
    }
    return m;
  }

  std::size_t vindex(AnalogNode node) const {
    SLDM_ASSERT(node != kGround);
    return node - 1;
  }

  void pack(const std::vector<Volts>& x, const std::vector<Amperes>& branch,
            std::vector<double>& u) const {
    SLDM_ASSERT(x.size() == n_nodes_);
    for (AnalogNode node = 1; node < n_nodes_; ++node) {
      u[vindex(node)] = x[node];
    }
    for (std::size_t k = 0; k < branch.size(); ++k) {
      u[n_nodes_ - 1 + k] = branch[k];
    }
  }

  void unpack(const std::vector<double>& u, std::vector<Volts>& x,
              std::vector<Amperes>& branch) const {
    x[kGround] = 0.0;
    for (AnalogNode node = 1; node < n_nodes_; ++node) {
      x[node] = u[vindex(node)];
    }
    for (std::size_t k = 0; k < branch.size(); ++k) {
      branch[k] = u[n_nodes_ - 1 + k];
    }
  }

  double voltage_of(const std::vector<double>& u, AnalogNode node) const {
    return node == kGround ? 0.0 : u[vindex(node)];
  }

  void stamp_f(AnalogNode at, double current) {
    if (at == kGround) return;
    f_[vindex(at)] += current;
  }

  void assemble(const std::vector<double>& u, Seconds t, bool with_caps,
                Method method, Seconds h, const std::vector<CapState>& states,
                double source_scale, double gmin) {
    double* jac = jac_.values();
    const int* slot = slots_.data();
    // Adds `g` at the next stamp site; ground sites are skipped.
    const auto stamp_j = [&](double g) {
      if (*slot >= 0) jac[*slot] += g;
      ++slot;
    };

    // Gmin to ground on every node equation.
    for (AnalogNode node = 1; node < n_nodes_; ++node) {
      stamp_j(gmin);
      stamp_f(node, gmin * voltage_of(u, node));
    }

    for (const Resistor& r : circuit_.resistors()) {
      const double g = 1.0 / r.resistance;
      const double i = g * (voltage_of(u, r.a) - voltage_of(u, r.b));
      stamp_f(r.a, i);
      stamp_f(r.b, -i);
      stamp_j(g);
      stamp_j(-g);
      stamp_j(-g);
      stamp_j(g);
    }

    if (with_caps) {
      SLDM_ASSERT(states.size() == circuit_.capacitors().size());
      for (std::size_t k = 0; k < circuit_.capacitors().size(); ++k) {
        const Capacitor& c = circuit_.capacitors()[k];
        const CapState& s = states[k];
        const double geq = (method == Method::kTrapezoidal ? 2.0 : 1.0) *
                           c.capacitance / h;
        const double ieq =
            method == Method::kTrapezoidal
                ? -geq * s.v_prev - s.i_prev
                : -geq * s.v_prev;
        const double vc = voltage_of(u, c.a) - voltage_of(u, c.b);
        const double i = geq * vc + ieq;
        stamp_f(c.a, i);
        stamp_f(c.b, -i);
        stamp_j(geq);
        stamp_j(-geq);
        stamp_j(-geq);
        stamp_j(geq);
      }
    } else {
      slot += 4 * circuit_.capacitors().size();
    }

    for (const Mosfet& m : circuit_.mosfets()) {
      const MosfetOp op = eval_mosfet(m, voltage_of(u, m.drain),
                                      voltage_of(u, m.gate),
                                      voltage_of(u, m.source));
      // op.id leaves the drain node and enters the source node.
      stamp_f(m.drain, op.id);
      stamp_f(m.source, -op.id);
      stamp_j(op.d_vd);
      stamp_j(op.d_vg);
      stamp_j(op.d_vs);
      stamp_j(-op.d_vd);
      stamp_j(-op.d_vg);
      stamp_j(-op.d_vs);
    }

    for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
      const VSource& src = circuit_.vsources()[k];
      const std::size_t br = n_nodes_ - 1 + k;
      const double ib = u[br];
      // Branch current leaves `pos`, enters `neg`.
      stamp_f(src.pos, ib);
      stamp_f(src.neg, -ib);
      stamp_j(1.0);
      stamp_j(-1.0);
      // Branch equation: v_pos - v_neg = V(t).
      f_[br] = voltage_of(u, src.pos) - voltage_of(u, src.neg) -
               source_scale * src.value.at(t);
      stamp_j(1.0);
      stamp_j(-1.0);
    }
    SLDM_ASSERT(slot == slots_.data() + slots_.size());
  }

  const Circuit& circuit_;
  const TransientOptions& options_;
  std::size_t n_nodes_;
  std::size_t n_unknowns_;
  std::vector<int> slots_;  // jac_ value index per stamp site, -1 on ground
  CscMatrix jac_;
  SparseLu lu_;
  // Newton work arrays: residual, right-hand side, step, packed unknowns.
  std::vector<double> f_, rhs_, delta_, u_;
};

std::vector<Seconds> collect_breakpoints(const Circuit& circuit,
                                         Seconds t_stop) {
  std::set<Seconds> points;
  for (const VSource& src : circuit.vsources()) {
    for (Seconds b : src.value.breakpoints()) {
      if (b > 0.0 && b < t_stop) points.insert(b);
    }
  }
  return {points.begin(), points.end()};
}

/// The DC operating point on `solver`'s circuit (see dc_operating_point).
std::vector<Volts> solve_dc(Solver& solver, const Circuit& circuit) {
  std::vector<Volts> x(circuit.node_count(), 0.0);
  std::vector<Amperes> branch(circuit.vsources().size(), 0.0);
  const std::vector<CapState> no_caps;

  // Direct attempt from a flat-zero guess.
  if (solver.newton(x, branch, 0.0, /*with_caps=*/false,
                    Method::kBackwardEuler, 1.0, no_caps,
                    /*source_scale=*/1.0) > 0) {
    return x;
  }

  // Gmin stepping: solve with a strong leak to ground (which makes the
  // system strongly diagonally dominant), then relax the leak decade by
  // decade, reusing each solution as the next starting point.  This is
  // the classic SPICE fallback and converges on the bistable-prone CMOS
  // stacks where plain Newton oscillates.
  std::fill(x.begin(), x.end(), 0.0);
  std::fill(branch.begin(), branch.end(), 0.0);
  bool ok = true;
  for (double gmin = 1e-3; gmin >= kGmin; gmin /= 10.0) {
    if (solver.newton(x, branch, 0.0, false, Method::kBackwardEuler, 1.0,
                      no_caps, 1.0, gmin) < 0) {
      ok = false;
      break;
    }
  }
  if (ok && solver.newton(x, branch, 0.0, false, Method::kBackwardEuler, 1.0,
                          no_caps, 1.0) > 0) {
    return x;
  }

  // Source-stepping continuation as the last resort.
  std::fill(x.begin(), x.end(), 0.0);
  std::fill(branch.begin(), branch.end(), 0.0);
  for (int pct = 2; pct <= 100; pct += 2) {
    const double scale = static_cast<double>(pct) / 100.0;
    if (solver.newton(x, branch, 0.0, false, Method::kBackwardEuler, 1.0,
                      no_caps, scale) < 0) {
      throw NumericalError(
          "DC operating point failed at source continuation step " +
          std::to_string(pct) + "%");
    }
  }
  return x;
}

}  // namespace

const Waveform& TransientResult::at(AnalogNode n) const {
  SLDM_EXPECTS(n < waveforms.size());
  return waveforms[n];
}

std::vector<Volts> dc_operating_point(const Circuit& circuit,
                                      const TransientOptions& options) {
  Solver solver(circuit, options);
  return solve_dc(solver, circuit);
}

TransientResult simulate(const Circuit& circuit,
                         const TransientOptions& options) {
  SLDM_EXPECTS(options.t_stop > 0.0);
  SLDM_EXPECTS(options.dt_init > 0.0);

  Solver solver(circuit, options);
  const Seconds dt_max =
      options.dt_max > 0.0 ? options.dt_max : options.t_stop / 200.0;

  // Initial state.
  std::vector<Volts> x(circuit.node_count(), 0.0);
  if (options.start_from_dc) {
    x = solve_dc(solver, circuit);
  }
  for (const auto& [node, v] : options.initial_conditions) {
    SLDM_EXPECTS(node < circuit.node_count());
    x[node] = v;
  }
  x[kGround] = 0.0;
  std::vector<Amperes> branch(circuit.vsources().size(), 0.0);

  std::vector<CapState> states(circuit.capacitors().size());
  for (std::size_t k = 0; k < states.size(); ++k) {
    states[k].v_prev = Solver::cap_voltage(circuit.capacitors()[k], x);
    states[k].i_prev = 0.0;
  }

  TransientResult result;
  result.waveforms.resize(circuit.node_count());
  auto record = [&](Seconds t) {
    for (AnalogNode n = 0; n < circuit.node_count(); ++n) {
      result.waveforms[n].append(t, x[n]);
    }
  };
  // t = 0 sample uses a tiny negative epsilon-free convention: record the
  // initial state directly.
  for (AnalogNode n = 0; n < circuit.node_count(); ++n) {
    result.waveforms[n].append(0.0, x[n]);
  }

  const std::vector<Seconds> breakpoints =
      collect_breakpoints(circuit, options.t_stop);
  std::size_t next_bp = 0;

  Seconds t = 0.0;
  Seconds h = options.dt_init;
  bool first_step = true;
  const Seconds t_eps = options.t_stop * 1e-12;
  std::vector<Volts> x_new;
  std::vector<Amperes> branch_new;

  while (t < options.t_stop - t_eps) {
    while (next_bp < breakpoints.size() && breakpoints[next_bp] <= t + t_eps) {
      ++next_bp;
    }
    Seconds h_try = std::min({h, dt_max, options.t_stop - t});
    if (next_bp < breakpoints.size() &&
        t + h_try > breakpoints[next_bp] - t_eps) {
      h_try = breakpoints[next_bp] - t;
      first_step = true;  // restart integration method at the corner
    }
    SLDM_ASSERT(h_try > 0.0);

    x_new = x;
    branch_new = branch;
    const Method method =
        first_step ? Method::kBackwardEuler : Method::kTrapezoidal;
    const int iters = solver.newton(x_new, branch_new, t + h_try,
                                    /*with_caps=*/true, method, h_try, states,
                                    /*source_scale=*/1.0);

    double max_dv = 0.0;
    if (iters > 0) {
      for (AnalogNode n = 1; n < circuit.node_count(); ++n) {
        max_dv = std::max(max_dv, std::abs(x_new[n] - x[n]));
      }
    }
    const bool too_big = iters > 0 && max_dv > options.dv_max;
    if (iters < 0 || (too_big && h_try > 4.0 * options.dt_min)) {
      ++result.rejected_steps;
      h = h_try / 2.0;
      if (h < options.dt_min) {
        throw NumericalError("transient step size underflow at t = " +
                             std::to_string(t));
      }
      continue;
    }

    // Accept the step: update capacitor histories.
    result.newton_iterations += static_cast<std::size_t>(iters);
    for (std::size_t k = 0; k < states.size(); ++k) {
      const Capacitor& c = circuit.capacitors()[k];
      const double v_new = Solver::cap_voltage(c, x_new);
      const double geq =
          (method == Method::kTrapezoidal ? 2.0 : 1.0) * c.capacitance /
          h_try;
      const double i_new =
          method == Method::kTrapezoidal
              ? geq * (v_new - states[k].v_prev) - states[k].i_prev
              : geq * (v_new - states[k].v_prev);
      states[k].v_prev = v_new;
      states[k].i_prev = i_new;
    }
    std::swap(x, x_new);
    std::swap(branch, branch_new);
    t += h_try;
    first_step = false;
    ++result.accepted_steps;
    record(t);

    // Grow the step when the solution is moving slowly.
    h = h_try;
    if (max_dv < 0.3 * options.dv_max) {
      h = std::min(h * 1.5, dt_max);
    }
  }
  return result;
}

}  // namespace sldm
