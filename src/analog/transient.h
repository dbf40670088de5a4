// Nonlinear transient simulation: modified nodal analysis with
// Newton-Raphson per time point, trapezoidal integration (backward-Euler
// first step), and step-size control on per-step voltage change.
// Every Newton iteration solves its Jacobian with the one sparse LU of
// analog/sparse.h, over a pattern built once per simulate() call.
//
// The solver never steps across a source breakpoint, so edges launched by
// PwlSource::edge are resolved exactly.
#pragma once

#include <unordered_map>
#include <vector>

#include "analog/circuit.h"
#include "analog/waveform.h"

namespace sldm {

/// Options for simulate().
struct TransientOptions {
  Seconds t_stop = 0.0;        ///< required; end of the run
  Seconds dt_init = 1e-12;     ///< first step size
  Seconds dt_min = 1e-18;      ///< below this a failing step is fatal
  Seconds dt_max = 0.0;        ///< 0 = t_stop / 200
  Volts dv_max = 0.25;         ///< max accepted per-step node change
  int newton_max_iter = 80;    ///< iterations before a step is retried
  Volts newton_abstol = 1e-7;  ///< absolute Newton convergence tolerance
  double newton_reltol = 1e-6;
  Volts newton_damping = 1.0;  ///< max update magnitude per iteration
  /// If true, the initial state is the DC operating point at t = 0.
  /// If false, nodes start at 0 V unless overridden below.
  bool start_from_dc = true;
  /// Per-node initial voltages applied after (or instead of) the DC
  /// solve; used for precharged dynamic nodes.
  std::unordered_map<AnalogNode, Volts> initial_conditions;
};

/// Result of a transient run: one waveform per analog node (index ==
/// AnalogNode), plus work counters for the Table 5 runtime comparison.
struct TransientResult {
  std::vector<Waveform> waveforms;
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_iterations = 0;

  const Waveform& at(AnalogNode n) const;
};

/// DC operating point with all sources at their t=0 values and
/// capacitors open.  Returns node voltages indexed by AnalogNode
/// (ground included as entry 0).  Throws NumericalError on failure.
std::vector<Volts> dc_operating_point(const Circuit& circuit,
                                      const TransientOptions& options = {});

/// Runs a transient analysis.  Throws NumericalError if Newton fails to
/// converge at the minimum step size.
TransientResult simulate(const Circuit& circuit,
                         const TransientOptions& options);

}  // namespace sldm
